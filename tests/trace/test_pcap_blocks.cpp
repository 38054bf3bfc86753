// Block-boundary differential for the pcap reader. The reader pulls its
// stream in 256 KiB blocks and decodes records in place, so a record can
// straddle a block edge at any byte, outgrow a block, or arrive from a
// stream that yields a few bytes at a time. None of that may change what is
// parsed: each test checks the packets and counters against the records
// write_pcap encoded, and against a plain istringstream parse.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "trace/generator.hpp"
#include "trace/pcap.hpp"
#include "pcap_image.hpp"
#include "trace/population.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace monohids::trace {
namespace {

using net::PacketRecord;

/// The reader's block size: images here are larger, so edges occur.
constexpr std::size_t kBlock = 256 * 1024;

/// A stream that delivers its bytes 1-7 at a time, one piece per underflow.
class TrickleBuf final : public std::streambuf {
 public:
  TrickleBuf(std::string bytes, std::uint64_t seed) : bytes_(std::move(bytes)), rng_(seed) {}

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (next_ >= bytes_.size()) return traits_type::eof();
    const std::size_t n = std::min<std::size_t>(1 + rng_() % 7, bytes_.size() - next_);
    char* piece = bytes_.data() + next_;
    setg(piece, piece, piece + n);
    next_ += n;
    return traits_type::to_int_type(*piece);
  }

 private:
  std::string bytes_;
  util::Xoshiro256 rng_;
  std::size_t next_ = 0;
};

/// A few hours of one host's generated traffic: well over one block.
const std::vector<PacketRecord>& traffic() {
  static const auto packets = [] {
    PopulationConfig pop;
    pop.user_count = 8;
    const auto users = generate_population(pop);
    const TraceGenerator generator{GeneratorConfig{}};
    return generator.generate_packets(users[3], 0, 8 * util::kMicrosPerHour);
  }();
  return packets;
}

PcapReadResult parse_whole(const std::string& bytes) {
  std::istringstream in(bytes);
  return read_pcap(in);
}

PcapReadResult parse_trickled(const std::string& bytes, std::uint64_t seed) {
  TrickleBuf buf(bytes, seed);
  std::istream in(&buf);
  return read_pcap(in);
}

void expect_same_parse(const PcapReadResult& a, const PcapReadResult& b) {
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.packet_count, b.packet_count);
  EXPECT_EQ(a.skipped_non_ipv4, b.skipped_non_ipv4);
  EXPECT_EQ(a.skipped_protocol, b.skipped_protocol);
  EXPECT_EQ(a.skipped_fragment, b.skipped_fragment);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.malformed, b.malformed);
  EXPECT_EQ(a.nanosecond_timestamps, b.nanosecond_timestamps);
  EXPECT_EQ(a.byte_swapped, b.byte_swapped);
  ASSERT_EQ(a.packets.size(), b.packets.size());
  for (std::size_t i = 0; i < a.packets.size(); ++i) {
    ASSERT_EQ(a.packets[i], b.packets[i]) << "packet " << i;
  }
}

/// Header bytes a frame must keep for the reader to parse its packet.
std::size_t needed_bytes(const PacketRecord& p) {
  switch (p.tuple.protocol) {
    case net::Protocol::Tcp: return 14 + 20 + 20;
    case net::Protocol::Udp: return 14 + 20 + 8;
    case net::Protocol::Icmp: return 14 + 20;
  }
  return 0;
}

struct Variant {
  std::string name;
  bool swapped = false;
  bool nanos = false;
  bool snapped = false;
};

/// Snap length of record `i` in a snapped variant: cuts land before,
/// inside and after the Ethernet, IPv4 and transport headers.
std::uint32_t snap_of(std::size_t i) { return static_cast<std::uint32_t>(8 + (i * 7) % 64); }

/// Re-renders a write_pcap image as `v` describes: nanosecond timestamps,
/// per-record snaplen cuts, and the opposite byte order for every 32-bit
/// header field (the reader ignores the version word, whose two 16-bit
/// halves a real swapped file would keep in order).
std::string render(const std::string& image, const Variant& v) {
  using namespace pcap_image;
  std::string out = image.substr(0, kGlobalHeader);
  if (v.nanos) put_u32_le(out, 0, 0xa1b23c4d);
  const auto records = record_offsets(image);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::size_t at = records[i];
    const std::uint32_t incl = u32_le_at(image, at + 8);
    const std::uint32_t kept = v.snapped ? std::min(incl, snap_of(i)) : incl;
    std::string header = image.substr(at, kRecordHeader);
    if (v.nanos) put_u32_le(header, 4, u32_le_at(header, 4) * 1000);
    put_u32_le(header, 8, kept);
    out += header;
    out += image.substr(at + kRecordHeader, kept);
  }
  if (v.swapped) {
    const auto swap32 = [&](std::size_t at) {
      std::swap(out[at], out[at + 3]);
      std::swap(out[at + 1], out[at + 2]);
    };
    // Collect the offsets from the little-endian layout before swapping.
    std::vector<std::size_t> fields;
    for (std::size_t at = 0; at < kGlobalHeader; at += 4) fields.push_back(at);
    for (std::size_t at : record_offsets(out)) {
      for (std::size_t f = 0; f < kRecordHeader; f += 4) fields.push_back(at + f);
    }
    for (std::size_t at : fields) swap32(at);
  }
  return out;
}

TEST(PcapBlocks, TrickledStreamsParseLikeWholeStringsInEveryVariant) {
  const auto& packets = traffic();
  const std::string image = pcap_image::of(packets);
  ASSERT_GT(image.size(), 2 * kBlock);

  const std::vector<Variant> variants{
      {"plain"},
      {"swapped", true},
      {"nanos", false, true},
      {"swapped+nanos", true, true},
      {"snapped", false, false, true},
      {"snapped+swapped", true, false, true},
      {"snapped+swapped+nanos", true, true, true},
  };
  for (const Variant& v : variants) {
    SCOPED_TRACE(v.name);
    const std::string bytes = render(image, v);
    const PcapReadResult whole = parse_whole(bytes);

    // Ground truth from the encoded records: a snapped frame parses only
    // when it kept every header the reader needs, and counts as truncated
    // otherwise.
    std::vector<PacketRecord> expected;
    for (std::size_t i = 0; i < packets.size(); ++i) {
      if (!v.snapped || snap_of(i) >= needed_bytes(packets[i])) expected.push_back(packets[i]);
    }
    EXPECT_EQ(whole.byte_swapped, v.swapped);
    EXPECT_EQ(whole.nanosecond_timestamps, v.nanos);
    EXPECT_EQ(whole.records, packets.size());
    EXPECT_EQ(whole.truncated, packets.size() - expected.size());
    EXPECT_EQ(whole.packets, expected);
    if (v.snapped) {
      EXPECT_GT(whole.truncated, 0u);
      EXPECT_GT(expected.size(), 0u);
    }

    for (std::uint64_t seed : {1u, 2u}) {
      SCOPED_TRACE("trickle seed " + std::to_string(seed));
      expect_same_parse(parse_trickled(bytes, seed), whole);
    }
  }
}

TEST(PcapBlocks, RecordsStraddlingTheBlockEdgeAtEveryOffset) {
  // A filler record in front slides every later record across the first
  // block edge. Its length is chosen so that stream byte kBlock falls `cut`
  // bytes into a record: at every offset of the 16-byte record header, and
  // at the edges of the Ethernet, IPv4 and transport headers of its frame.
  const auto& packets = traffic();
  const std::string image = pcap_image::of(packets);
  const std::string global = image.substr(0, pcap_image::kGlobalHeader);
  const std::string body = image.substr(pcap_image::kGlobalHeader);
  const auto records = pcap_image::record_offsets(image);

  std::vector<std::size_t> cuts;
  for (std::size_t cut = 1; cut <= pcap_image::kRecordHeader; ++cut) cuts.push_back(cut);
  for (std::size_t frame_cut : {1u, 13u, 14u, 15u, 33u, 34u, 35u, 41u, 42u, 53u, 54u, 55u}) {
    cuts.push_back(pcap_image::kRecordHeader + frame_cut);
  }
  for (std::size_t cut : cuts) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    // The last record (in the layout with an empty filler frame) that
    // starts early enough, then the filler frame that moves it into place.
    const std::size_t target = kBlock - cut - pcap_image::kRecordHeader;
    const auto after = std::upper_bound(records.begin(), records.end(), target);
    ASSERT_NE(after, records.begin());
    const std::size_t shift = target - *std::prev(after);
    std::string filler(pcap_image::kRecordHeader + shift, '\0');
    pcap_image::put_u32_le(filler, 8, static_cast<std::uint32_t>(shift));
    pcap_image::put_u32_le(filler, 12, static_cast<std::uint32_t>(shift));
    const std::string bytes = global + filler + body;

    const PcapReadResult whole = parse_whole(bytes);
    // The zero-filled filler frame is too short for Ethernet below 14
    // bytes and has ethertype 0 from there on.
    EXPECT_EQ(whole.records, packets.size() + 1);
    EXPECT_EQ(whole.truncated + whole.skipped_non_ipv4, 1u);
    ASSERT_EQ(whole.packets, packets);
    expect_same_parse(parse_trickled(bytes, cut), whole);
  }
}

TEST(PcapBlocks, RecordLargerThanABlockIsParsedWhole) {
  // An oversized record (a frame with trailing padding past its IPv4 total
  // length) forces the reader to grow its buffer past one block; the
  // records on either side must be unaffected.
  const std::vector<PacketRecord> packets(traffic().begin(), traffic().begin() + 3);
  std::string image = pcap_image::of(packets);
  const auto records = pcap_image::record_offsets(image);
  const std::size_t padding = kBlock + kBlock / 2;
  const std::uint32_t incl = pcap_image::u32_le_at(image, records[1] + 8);
  const std::size_t frame_end = records[1] + pcap_image::kRecordHeader + incl;
  image.insert(frame_end, padding, '\x5a');
  pcap_image::put_u32_le(image, records[1] + 8, static_cast<std::uint32_t>(incl + padding));
  pcap_image::put_u32_le(image, records[1] + 12, static_cast<std::uint32_t>(incl + padding));

  const PcapReadResult whole = parse_whole(image);
  EXPECT_EQ(whole.records, 3u);
  EXPECT_EQ(whole.packets, packets);
  expect_same_parse(parse_trickled(image, 3), whole);

  // The same record cut short of its claimed length is a framing fault.
  std::istringstream cut(image.substr(0, frame_end + padding / 2));
  EXPECT_THROW((void)read_pcap(cut), InputError);
}

}  // namespace
}  // namespace monohids::trace
