#include "trace/pcap.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "features/pipeline.hpp"
#include "trace/generator.hpp"
#include "pcap_image.hpp"
#include "trace/population.hpp"
#include "util/error.hpp"

namespace monohids::trace {
namespace {

using net::Ipv4Address;
using net::PacketRecord;
using net::Protocol;
using net::TcpFlags;

std::vector<PacketRecord> sample_packets() {
  const net::FiveTuple tcp{Ipv4Address::parse("10.0.0.1"), Ipv4Address::parse("93.1.2.3"),
                           50000, 443, Protocol::Tcp};
  const net::FiveTuple udp{Ipv4Address::parse("10.0.0.1"),
                           Ipv4Address::parse("10.10.255.2"), 50001, 53, Protocol::Udp};
  const net::FiveTuple icmp{Ipv4Address::parse("10.0.0.1"), Ipv4Address::parse("8.8.8.8"),
                            0, 0, Protocol::Icmp};
  return {
      {1'500'000, tcp, TcpFlags::Syn, 0},
      {1'520'000, tcp.reversed(), TcpFlags::Syn | TcpFlags::Ack, 0},
      {1'540'000, tcp, TcpFlags::Ack | TcpFlags::Psh, 400},
      {2'000'000, udp, TcpFlags::None, 64},
      {3'000'000, icmp, TcpFlags::None, 32},
  };
}

TEST(Pcap, RoundTripPreservesEverything) {
  const auto original = sample_packets();
  std::stringstream buffer;
  write_pcap(buffer, original);
  const auto result = read_pcap(buffer);

  ASSERT_EQ(result.packets.size(), original.size());
  EXPECT_EQ(result.skipped_non_ipv4, 0u);
  EXPECT_EQ(result.truncated, 0u);
  EXPECT_FALSE(result.byte_swapped);
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(result.packets[i], original[i]) << "packet " << i;
  }
}

TEST(Pcap, RoundTripOfGeneratedTraffic) {
  GeneratorConfig config;
  config.weeks = 1;
  const TraceGenerator gen(config);
  PopulationConfig pop;
  pop.user_count = 2;
  const auto users = generate_population(pop);
  const auto original = gen.generate_packets(users[1], 0, util::kMicrosPerDay / 6);
  ASSERT_FALSE(original.empty());

  std::stringstream buffer;
  write_pcap(buffer, original);
  const auto result = read_pcap(buffer);
  ASSERT_EQ(result.packets.size(), original.size());
  EXPECT_EQ(result.packets, original);
}

TEST(Pcap, ChecksumMatchesKnownVector) {
  // RFC 1071 example header (from the IPv4 checksum literature).
  const std::uint8_t header[] = {0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40,
                                 0x11, 0x00, 0x00, 0xc0, 0xa8, 0x00, 0x01, 0xc0, 0xa8,
                                 0x00, 0xc7};
  EXPECT_EQ(ipv4_header_checksum(header, sizeof(header)), 0xb861);
}

TEST(Pcap, WrittenChecksumsValidate) {
  // A header including its own checksum must sum to zero (checksum of the
  // checksummed header is 0).
  std::stringstream buffer;
  write_pcap(buffer, sample_packets());
  const std::string bytes = buffer.str();
  // first record: 24 global + 16 record header, then 14 ethernet bytes.
  const auto* ip = reinterpret_cast<const std::uint8_t*>(bytes.data()) + 24 + 16 + 14;
  EXPECT_EQ(ipv4_header_checksum(ip, 20), 0x0000);
}

TEST(Pcap, WrittenTransportChecksumsValidate) {
  // Receiver-side validation: re-summing a segment with its checksum field
  // included must fold to zero. Walk every record in the written file and
  // validate TCP/UDP with the pseudo-header, ICMP over the message alone.
  const auto packets = sample_packets();
  std::stringstream buffer;
  write_pcap(buffer, packets);
  const std::string bytes = buffer.str();
  const auto* data = reinterpret_cast<const std::uint8_t*>(bytes.data());

  std::size_t pos = 24;  // skip the global header
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const net::PacketRecord& p = packets[i];
    const std::uint32_t incl_len = static_cast<std::uint32_t>(data[pos + 8]) |
                                   static_cast<std::uint32_t>(data[pos + 9]) << 8 |
                                   static_cast<std::uint32_t>(data[pos + 10]) << 16 |
                                   static_cast<std::uint32_t>(data[pos + 11]) << 24;
    const std::uint8_t* frame = data + pos + 16;
    const std::uint8_t* segment = frame + 14 + 20;  // ethernet + IPv4
    const std::size_t segment_len = incl_len - 14 - 20;

    std::uint16_t written = 0, validation = 0;
    switch (p.tuple.protocol) {
      case net::Protocol::Tcp:
        written = static_cast<std::uint16_t>(segment[16] << 8 | segment[17]);
        validation = ipv4_transport_checksum(p.tuple.src_ip, p.tuple.dst_ip, 6,
                                             segment, segment_len);
        break;
      case net::Protocol::Udp:
        written = static_cast<std::uint16_t>(segment[6] << 8 | segment[7]);
        validation = ipv4_transport_checksum(p.tuple.src_ip, p.tuple.dst_ip, 17,
                                             segment, segment_len);
        break;
      case net::Protocol::Icmp:
        written = static_cast<std::uint16_t>(segment[2] << 8 | segment[3]);
        validation = icmp_checksum(segment, segment_len);
        break;
    }
    EXPECT_NE(written, 0u) << "packet " << i << " left a zero checksum";
    EXPECT_EQ(validation, 0u) << "packet " << i << " checksum does not validate";
    pos += 16 + incl_len;
  }
  EXPECT_EQ(pos, bytes.size());
}

TEST(Pcap, TransportChecksumKnownVector) {
  // Hand-checked UDP datagram: 192.168.0.1 -> 192.168.0.199, sport 1087,
  // dport 13, length 8+5, payload "TEST\n" replaced with zeros in our writer
  // so we use an all-zero payload vector computed by hand instead.
  const std::uint8_t udp[] = {0x04, 0x3f, 0x00, 0x0d, 0x00, 0x0d, 0x00, 0x00,
                              0x00, 0x00, 0x00, 0x00, 0x00};
  const auto src = net::Ipv4Address::parse("192.168.0.1");
  const auto dst = net::Ipv4Address::parse("192.168.0.199");
  // Pseudo-header sum: c0a8 + 0001 + c0a8 + 00c7 + 0011 + 000d = 0x18236;
  // segment sum: 043f + 000d + 000d = 0x0459; total 0x1868f, folded
  // 0x868f + 1 = 0x8690 -> checksum ~0x8690 = 0x796f.
  EXPECT_EQ(ipv4_transport_checksum(src, dst, 17, udp, sizeof(udp)), 0x796f);

  // Odd-length ICMP message exercises the trailing-byte pad.
  const std::uint8_t icmp[] = {0x08, 0x00, 0x00, 0x00, 0x12};
  // Sum: 0800 + 0000 + 1200 = 0x1a00 -> checksum 0xe5ff.
  EXPECT_EQ(icmp_checksum(icmp, sizeof(icmp)), 0xe5ff);
}

TEST(Pcap, ReadsByteSwappedFiles) {
  // Write a file, then byte-swap its global and record headers by hand to
  // simulate a capture from an opposite-endian machine.
  std::stringstream buffer;
  write_pcap(buffer, {sample_packets()[0]});
  std::string bytes = buffer.str();
  auto swap32 = [&](std::size_t pos) {
    std::swap(bytes[pos], bytes[pos + 3]);
    std::swap(bytes[pos + 1], bytes[pos + 2]);
  };
  for (std::size_t pos = 0; pos < 24; pos += 4) swap32(pos);  // global header
  for (std::size_t pos = 24; pos < 40; pos += 4) swap32(pos);  // record header

  std::stringstream swapped(bytes);
  const auto result = read_pcap(swapped);
  EXPECT_TRUE(result.byte_swapped);
  ASSERT_EQ(result.packets.size(), 1u);
  EXPECT_EQ(result.packets[0], sample_packets()[0]);
}

TEST(Pcap, SkipsNonIpv4Frames) {
  std::stringstream buffer;
  write_pcap(buffer, {sample_packets()[0]});
  std::string bytes = buffer.str();
  // Corrupt the ethertype of the only frame to ARP (0x0806).
  bytes[24 + 16 + 12] = 0x08;
  bytes[24 + 16 + 13] = 0x06;
  std::stringstream corrupted(bytes);
  const auto result = read_pcap(corrupted);
  EXPECT_TRUE(result.packets.empty());
  EXPECT_EQ(result.skipped_non_ipv4, 1u);
}

TEST(Pcap, NonFirstFragmentsAreSkippedAndCounted) {
  // A fragment past the first carries payload where the transport header
  // would be; parsing it would read payload bytes as ports. The first
  // fragment (MF set, offset 0) still holds the header and is parsed.
  const auto original = sample_packets();
  std::string bytes = pcap_image::of(original);
  const auto records = pcap_image::record_offsets(bytes);
  pcap_image::put_u16_be(bytes, pcap_image::ip_header_at(records[2]) + 6, 0x2000 | 185);
  pcap_image::put_u16_be(bytes, pcap_image::ip_header_at(records[3]) + 6, 0x2000);
  std::istringstream in(bytes);
  const auto result = read_pcap(in);

  EXPECT_EQ(result.records, 5u);
  EXPECT_EQ(result.skipped_fragment, 1u);
  const std::vector<PacketRecord> expected{original[0], original[1], original[3], original[4]};
  EXPECT_EQ(result.packets, expected);
}

TEST(Pcap, MalformedIpv4HeadersAreCountedNotParsed) {
  // Record 0 is a 54-byte TCP SYN frame: an IHL of 15 (60 header bytes)
  // runs past its captured bytes, IHL 4 would put the "ports" inside the IP
  // header itself, and a total length of 19 is shorter than the header.
  const auto original = sample_packets();
  const std::string pristine = pcap_image::of(original);
  const std::size_t ip = pcap_image::ip_header_at(pcap_image::record_offsets(pristine)[0]);
  for (const auto& [offset, value] : {std::pair<std::size_t, std::uint16_t>{0, 0x44},
                                      {0, 0x40},
                                      {0, 0x4F},
                                      {2, 19}}) {
    SCOPED_TRACE("byte " + std::to_string(offset) + " = " + std::to_string(value));
    std::string bytes = pristine;
    if (offset == 0) {
      bytes[ip] = static_cast<char>(value);
    } else {
      pcap_image::put_u16_be(bytes, ip + offset, value);
    }
    std::istringstream in(bytes);
    const auto result = read_pcap(in);
    EXPECT_EQ(result.records, 5u);
    EXPECT_EQ(result.malformed, 1u);
    EXPECT_EQ(result.truncated, 0u);
    EXPECT_EQ(result.packets, std::vector<PacketRecord>(original.begin() + 1, original.end()));
  }
}

TEST(Pcap, RejectsGarbageAndTruncation) {
  std::stringstream garbage("this is not a pcap file, not even close");
  EXPECT_THROW((void)read_pcap(garbage), InputError);

  std::stringstream empty("");
  EXPECT_THROW((void)read_pcap(empty), InputError);

  std::stringstream buffer;
  write_pcap(buffer, sample_packets());
  std::string bytes = buffer.str();
  bytes.resize(bytes.size() - 7);  // cut into the last record body
  std::stringstream truncated(bytes);
  EXPECT_THROW((void)read_pcap(truncated), InputError);
}

TEST(Pcap, FeaturePipelineRunsOnImportedCapture) {
  // End-to-end adoption path: synthetic trace -> pcap -> import -> features.
  GeneratorConfig config;
  config.weeks = 1;
  const TraceGenerator gen(config);
  PopulationConfig pop;
  pop.user_count = 1;
  const auto users = generate_population(pop);
  const auto packets = gen.generate_packets(users[0], 0, util::kMicrosPerDay / 12);

  std::stringstream buffer;
  write_pcap(buffer, packets);
  const auto imported = read_pcap(buffer);

  features::PipelineConfig pipeline_config;
  pipeline_config.horizon = util::kMicrosPerDay;
  const auto direct = features::extract_features(users[0].address, packets,
                                                 pipeline_config);
  const auto via_pcap = features::extract_features(users[0].address, imported.packets,
                                                   pipeline_config);
  for (features::FeatureKind f : features::kAllFeatures) {
    for (std::size_t b = 0; b < 96; ++b) {
      ASSERT_DOUBLE_EQ(via_pcap.matrix.of(f).at(b), direct.matrix.of(f).at(b))
          << features::name_of(f) << " bin " << b;
    }
  }
}

}  // namespace
}  // namespace monohids::trace
