// Streaming-ingest differential tests: pushing a trace through IngestSession
// in any batch partition must be byte-identical to the seed batch pipeline
// (oracles::extract_features_reference) — same FeatureMatrix, same
// FlowTableStats.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "features/pipeline.hpp"
#include "oracles/pipeline_ref.hpp"
#include "stats/sampling.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace monohids::features {
namespace {

const net::Ipv4Address kHost = net::Ipv4Address::parse("10.0.0.1");

net::PacketRecord random_packet(util::Xoshiro256& rng, util::Timestamp at) {
  net::PacketRecord p;
  p.timestamp = at;
  const bool outbound = rng.uniform01() < 0.7;
  const net::Ipv4Address peer(static_cast<std::uint32_t>(
      (93u << 24) + stats::sample_uniform_int(rng, 0, 60)));
  const auto sport = static_cast<std::uint16_t>(stats::sample_uniform_int(rng, 1024, 1100));
  const auto dport = static_cast<std::uint16_t>(stats::sample_uniform_int(rng, 1, 8));
  p.tuple = outbound
                ? net::FiveTuple{kHost, peer, sport, dport, net::Protocol::Tcp}
                : net::FiveTuple{peer, kHost, sport, dport, net::Protocol::Tcp};
  const double proto = rng.uniform01();
  if (proto < 0.3) p.tuple.protocol = net::Protocol::Udp;
  if (p.tuple.protocol == net::Protocol::Tcp) {
    const double roll = rng.uniform01();
    if (roll < 0.35) {
      p.tcp_flags = net::TcpFlags::Syn;
    } else if (roll < 0.45) {
      p.tcp_flags = net::TcpFlags::Syn | net::TcpFlags::Ack;
    } else if (roll < 0.7) {
      p.tcp_flags = net::TcpFlags::Ack;
    } else if (roll < 0.85) {
      p.tcp_flags = net::TcpFlags::Fin | net::TcpFlags::Ack;
    } else {
      p.tcp_flags = net::TcpFlags::Rst;
    }
  }
  return p;
}

/// Random time-ordered trace across several bins, with idle gaps so timeout
/// sweeps fire mid-trace.
std::vector<net::PacketRecord> random_trace(std::uint64_t seed, int packets,
                                            util::Duration horizon) {
  util::Xoshiro256 rng(seed);
  std::vector<net::PacketRecord> trace;
  util::Timestamp now = 0;
  for (int i = 0; i < packets; ++i) {
    now += stats::sample_uniform_int(rng, 0, 2 * util::kMicrosPerSecond);
    if (rng.uniform01() < 0.01) now += 7 * util::kMicrosPerMinute;  // idle gap
    if (now >= horizon) break;
    trace.push_back(random_packet(rng, now));
  }
  return trace;
}

void expect_matrix_eq(const FeatureMatrix& got, const FeatureMatrix& expected) {
  for (FeatureKind f : kAllFeatures) {
    const auto g = got.of(f).values();
    const auto e = expected.of(f).values();
    ASSERT_EQ(g.size(), e.size());
    for (std::size_t b = 0; b < e.size(); ++b) {
      ASSERT_EQ(g[b], e[b]) << name_of(f) << " bin " << b;
    }
  }
}

PipelineConfig small_config() {
  PipelineConfig config;
  config.grid = util::BinGrid::minutes(15);
  config.horizon = 2 * util::kMicrosPerHour;
  config.flow_config.sweep_interval = util::kMicrosPerSecond;
  return config;
}

class IngestStreamDifferential : public ::testing::TestWithParam<std::uint64_t> {};

// 250 seeds x 4 batch partitions = 1000 random batch-vs-stream traces.
TEST_P(IngestStreamDifferential, AnyBatchPartitionMatchesReference) {
  const std::uint64_t seed = GetParam();
  const PipelineConfig config = small_config();
  const std::vector<net::PacketRecord> trace =
      random_trace(seed, seed % 11 == 0 ? 4000 : 600, config.horizon);

  const PipelineResult expected = oracles::extract_features_reference(kHost, trace, config);

  util::Xoshiro256 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                  std::size_t{stats::sample_uniform_int(rng, 2, 500)}}) {
    IngestSession session(kHost, config);
    std::size_t at = 0;
    while (at < trace.size()) {
      const std::size_t n = std::min(batch, trace.size() - at);
      session.on_batch(std::span<const net::PacketRecord>(trace).subspan(at, n));
      at += n;
    }
    const PipelineResult got = session.finish();
    expect_matrix_eq(got.matrix, expected.matrix);
    ASSERT_EQ(got.flow_stats, expected.flow_stats) << "batch size " << batch;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IngestStreamDifferential,
                         ::testing::Range<std::uint64_t>(1, 251));

TEST(IngestStream, OneShotExtractMatchesReference) {
  const PipelineConfig config = small_config();
  const std::vector<net::PacketRecord> trace = random_trace(7, 2000, config.horizon);
  const PipelineResult expected = oracles::extract_features_reference(kHost, trace, config);
  const PipelineResult got = extract_features(kHost, trace, config);
  expect_matrix_eq(got.matrix, expected.matrix);
  EXPECT_EQ(got.flow_stats, expected.flow_stats);
}

// Flush edge: a flow still open in the horizon's closing microsecond (and one
// past it) must be flushed identically by both paths.
TEST(IngestStream, FlushEdgeBinsMatchReference) {
  const PipelineConfig config = small_config();
  std::vector<net::PacketRecord> trace;
  net::PacketRecord p;
  p.tuple = {kHost, net::Ipv4Address::parse("93.0.0.9"), 50000, 80, net::Protocol::Tcp};
  p.tcp_flags = net::TcpFlags::Syn;
  p.timestamp = 0;
  trace.push_back(p);
  p.tcp_flags = net::TcpFlags::Ack;
  p.timestamp = config.horizon - 1;  // last bin's closing microsecond
  trace.push_back(p);
  p.tuple.src_port = 50001;
  p.tcp_flags = net::TcpFlags::Syn;
  p.timestamp = config.horizon - 1;
  trace.push_back(p);

  const PipelineResult expected = oracles::extract_features_reference(kHost, trace, config);
  IngestSession session(kHost, config);
  for (const auto& packet : trace) session.push(packet);
  const PipelineResult got = session.finish();
  expect_matrix_eq(got.matrix, expected.matrix);
  EXPECT_EQ(got.flow_stats, expected.flow_stats);
  // The first flow idled out when the closing-microsecond packets swept the
  // table; the SYN flow opened there is the one the flush must close.
  EXPECT_EQ(got.flow_stats.flows_ended_timeout, 1u);
  EXPECT_EQ(got.flow_stats.flows_ended_flush, 1u);
}

// Idle-timeout edge: a long silent gap mid-trace must expire flows in the
// same sweep in both paths even when the gap spans many sweep intervals.
TEST(IngestStream, IdleTimeoutAcrossLongGapMatchesReference) {
  const PipelineConfig config = small_config();
  std::vector<net::PacketRecord> trace;
  for (std::uint16_t i = 0; i < 20; ++i) {
    net::PacketRecord p;
    p.tuple = {kHost, net::Ipv4Address::parse("93.0.0.9"),
               static_cast<std::uint16_t>(50000 + i), 53, net::Protocol::Udp};
    p.timestamp = i;
    trace.push_back(p);
  }
  net::PacketRecord late;
  late.tuple = {kHost, net::Ipv4Address::parse("93.0.0.10"), 51000, 80, net::Protocol::Tcp};
  late.tcp_flags = net::TcpFlags::Syn;
  late.timestamp = util::kMicrosPerHour;  // all UDP flows long expired
  trace.push_back(late);

  const PipelineResult expected = oracles::extract_features_reference(kHost, trace, config);
  IngestSession session(kHost, config);
  session.on_batch(trace);
  const PipelineResult got = session.finish();
  expect_matrix_eq(got.matrix, expected.matrix);
  EXPECT_EQ(got.flow_stats, expected.flow_stats);
  EXPECT_EQ(got.flow_stats.flows_ended_timeout, 20u);
}

TEST(IngestStream, PushAfterFinishThrows) {
  IngestSession session(kHost, small_config());
  net::PacketRecord p;
  p.tuple = {kHost, net::Ipv4Address::parse("93.0.0.9"), 50000, 80, net::Protocol::Tcp};
  p.tcp_flags = net::TcpFlags::Syn;
  session.push(p);
  (void)session.finish();
  EXPECT_THROW(session.push(p), PreconditionError);
  EXPECT_THROW((void)session.finish(), PreconditionError);
}

// BatchingAdapter must forward every pushed packet, in order, in bounded
// batches.
TEST(IngestStream, BatchingAdapterBoundsAndPreservesOrder) {
  struct Collect final : PacketSink {
    std::vector<net::PacketRecord> all;
    std::size_t max_seen = 0;
    void on_batch(std::span<const net::PacketRecord> batch) override {
      max_seen = std::max(max_seen, batch.size());
      all.insert(all.end(), batch.begin(), batch.end());
    }
  } sink;

  BatchingAdapter batches(sink, 16);
  std::vector<net::PacketRecord> trace = random_trace(3, 1000, util::kMicrosPerWeek);
  for (const auto& p : trace) batches.push(p);
  EXPECT_EQ(batches.finish(), trace.size());
  EXPECT_LE(sink.max_seen, 16u);
  ASSERT_EQ(sink.all.size(), trace.size());
  EXPECT_TRUE(std::equal(trace.begin(), trace.end(), sink.all.begin()));
}

}  // namespace
}  // namespace monohids::features
