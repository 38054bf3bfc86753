// Seeded mutation harness for the pcap reader: byte flips, truncations and
// edits of the incl_len, ethertype, IHL, total length, fragment and protocol
// fields applied to valid write_pcap images. Whatever the damage, a reader
// either raises InputError or returns counters that account for every
// record it read:
//
//   records == packet_count + skipped_non_ipv4 + skipped_protocol
//              + skipped_fragment + truncated + malformed
//
// and the recovering reader agrees with the strict one: the same counters
// on a clean parse, the strict reader's diagnostic as its stream_error on a
// framing fault. The sanitizer CI job runs this file like all of tier 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <span>
#include <sstream>
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

class CountingSink final : public features::PacketSink {
 public:
  void on_batch(std::span<const net::PacketRecord> batch) override {
    packets += batch.size();
  }
  std::uint64_t packets = 0;
};

/// A valid image of a short stretch of generated traffic (all three
/// protocols), and its record offsets.
struct BaseImage {
  std::string bytes;
  std::vector<std::size_t> records;
};

const BaseImage& base_image() {
  static const BaseImage image = [] {
    PopulationConfig pop;
    pop.user_count = 4;
    const auto users = generate_population(pop);
    const TraceGenerator generator{GeneratorConfig{}};
    auto packets = generator.generate_packets(users[1], 0, util::kMicrosPerHour);
    packets.resize(std::min<std::size_t>(packets.size(), 300));
    BaseImage out;
    out.bytes = pcap_image::of(packets);
    out.records = pcap_image::record_offsets(out.bytes);
    return out;
  }();
  return image;
}

enum class Mutation {
  FlipByte,
  Truncate,
  InclLen,
  Ethertype,
  Ihl,
  TotalLen,
  Fragment,
  Protocol,
  Count
};

std::uint64_t below(util::Xoshiro256& rng, std::uint64_t n) { return rng() % n; }

void mutate(std::string& bytes, util::Xoshiro256& rng) {
  const auto& records = base_image().records;
  const std::size_t record = records[below(rng, records.size())];
  const std::size_t ip = pcap_image::ip_header_at(record);
  switch (static_cast<Mutation>(below(rng, static_cast<std::uint64_t>(Mutation::Count)))) {
    case Mutation::FlipByte:
      if (bytes.empty()) return;
      bytes[below(rng, bytes.size())] ^= static_cast<char>(1u << below(rng, 8));
      return;
    case Mutation::Truncate:
      bytes.resize(below(rng, bytes.size() + 1));
      return;
    case Mutation::InclLen: {
      if (record + 12 > bytes.size()) return;
      const std::uint32_t incl = pcap_image::u32_le_at(bytes, record + 8);
      const std::uint32_t choices[] = {static_cast<std::uint32_t>(below(rng, 80)),
                                       incl + static_cast<std::uint32_t>(below(rng, 64)),
                                       incl - static_cast<std::uint32_t>(below(rng, 64)),
                                       10u * 1024 * 1024,
                                       10u * 1024 * 1024 + 1,
                                       static_cast<std::uint32_t>(rng())};
      pcap_image::put_u32_le(bytes, record + 8, choices[below(rng, std::size(choices))]);
      return;
    }
    case Mutation::Ethertype:
      if (ip > bytes.size()) return;
      pcap_image::put_u16_be(bytes, ip - 2,
                             rng() % 2 ? 0x86DD : static_cast<std::uint16_t>(rng()));
      return;
    case Mutation::Ihl:
      if (ip >= bytes.size()) return;
      bytes[ip] = static_cast<char>(0x40 | below(rng, 16));
      return;
    case Mutation::TotalLen:
      if (ip + 4 > bytes.size()) return;
      pcap_image::put_u16_be(bytes, ip + 2,
                             static_cast<std::uint16_t>(rng() % 2 ? below(rng, 64) : rng()));
      return;
    case Mutation::Fragment:
      if (ip + 8 > bytes.size()) return;
      pcap_image::put_u16_be(bytes, ip + 6, static_cast<std::uint16_t>(rng()));
      return;
    case Mutation::Protocol:
      if (ip + 10 > bytes.size()) return;
      bytes[ip + 9] = static_cast<char>(rng());
      return;
    case Mutation::Count:
      return;
  }
}

void expect_conserved(const PcapReadResult& r) {
  EXPECT_EQ(r.records, r.packet_count + r.skipped_non_ipv4 + r.skipped_protocol +
                           r.skipped_fragment + r.truncated + r.malformed);
}

/// How one damaged image fared, for the harness-coverage test.
struct Outcome {
  bool threw = false;           ///< strict reader raised InputError
  bool recovered_fault = false; ///< recovering reader reported stream_error
  PcapReadResult counters;      ///< recovering reader's counters
};

Outcome check_image(const std::string& bytes) {
  Outcome outcome;
  std::string strict_error;
  PcapReadResult strict;
  try {
    std::istringstream in(bytes);
    strict = read_pcap(in);
  } catch (const InputError& e) {
    outcome.threw = true;
    strict_error = e.what();
  }
  if (!outcome.threw) {
    expect_conserved(strict);
    EXPECT_EQ(strict.packets.size(), strict.packet_count);
  }

  std::istringstream in(bytes);
  CountingSink sink;
  try {
    outcome.counters = stream_pcap_recovering(in, sink);
  } catch (const InputError& e) {
    // Only a malformed global header escapes the recovering reader, and the
    // strict reader must have refused it the same way.
    EXPECT_TRUE(outcome.threw);
    EXPECT_EQ(strict_error, e.what());
    return outcome;
  }
  const PcapReadResult& r = outcome.counters;
  outcome.recovered_fault = !r.stream_error.empty();
  expect_conserved(r);
  EXPECT_EQ(sink.packets, r.packet_count);
  EXPECT_EQ(r.stream_error, strict_error);
  if (!outcome.threw) {
    EXPECT_EQ(r.records, strict.records);
    EXPECT_EQ(r.packet_count, strict.packet_count);
    EXPECT_EQ(r.malformed, strict.malformed);
    EXPECT_EQ(r.skipped_fragment, strict.skipped_fragment);
    EXPECT_EQ(r.truncated, strict.truncated);
  }
  return outcome;
}

class PcapFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PcapFuzz, MutatedImagesThrowOrConserveRecords) {
  util::Xoshiro256 rng(GetParam());
  for (int c = 0; c < 300; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    std::string bytes = base_image().bytes;
    const std::uint64_t edits = 1 + below(rng, 3);
    for (std::uint64_t e = 0; e < edits; ++e) mutate(bytes, rng);
    (void)check_image(bytes);
    if (::testing::Test::HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PcapFuzz, ::testing::Values(1, 2, 3, 4, 5));

TEST(PcapFuzzHarness, ReachesEveryOutcome) {
  // Guards the harness itself: over a fixed seed the mutations must drive
  // the reader into each counter and both fault paths, or the identity
  // above is being checked on easy inputs only.
  util::Xoshiro256 rng(2024);
  PcapReadResult totals;
  std::uint64_t throws = 0, recovered = 0;
  for (int c = 0; c < 600; ++c) {
    std::string bytes = base_image().bytes;
    mutate(bytes, rng);
    const Outcome o = check_image(bytes);
    throws += o.threw;
    recovered += o.recovered_fault;
    totals.packet_count += o.counters.packet_count;
    totals.skipped_non_ipv4 += o.counters.skipped_non_ipv4;
    totals.skipped_protocol += o.counters.skipped_protocol;
    totals.skipped_fragment += o.counters.skipped_fragment;
    totals.truncated += o.counters.truncated;
    totals.malformed += o.counters.malformed;
  }
  EXPECT_GT(throws, 0u);
  EXPECT_GT(recovered, 0u);
  EXPECT_GT(totals.packet_count, 0u);
  EXPECT_GT(totals.skipped_non_ipv4, 0u);
  EXPECT_GT(totals.skipped_protocol, 0u);
  EXPECT_GT(totals.skipped_fragment, 0u);
  EXPECT_GT(totals.truncated, 0u);
  EXPECT_GT(totals.malformed, 0u);
}

}  // namespace
}  // namespace monohids::trace
