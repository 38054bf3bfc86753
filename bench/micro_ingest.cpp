// Microbenchmark for the streaming ingest engine.
//
// Measures packet->feature pipeline throughput: the seed batch pipeline
// (the tests/oracles library: map-based ReferenceFlowTable, per-packet event
// drains) vs the streaming engine (open-addressing flow table, adaptive
// scan/wheel expiry, zero-alloc event consumption), verifying both produce
// bit-identical FeatureMatrix and FlowTableStats.
//
// The headline (floor-gated) workload is a synthetic busy enterprise host:
// hundreds of new flows per second from ephemeral source ports, so tens of
// thousands of flows are live at once — the conntrack-scale regime the slot
// arena and timing wheel are built for, where the seed's per-flow node
// allocations and full-map expiry rescans dominate. The trace generator's
// session model is also measured, but reported informationally: its tuple
// space is small enough that flows get reused and only ~10^2 are ever live,
// so both tables stay cache-resident and the shared extractor cost bounds
// the achievable ratio.
//
// Also measured: the zero-materialization path (generating packets straight
// into an IngestSession vs materializing the full trace first). With --rss
// it instead forks one child per configuration and reports peak RSS
// (ru_maxrss), demonstrating that streamed ingest memory stays bounded by
// the batch size while the materialized path grows with trace length.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>

#include "bench/common.hpp"
#include "oracles/pipeline_ref.hpp"
#include "stats/sampling.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#define MONOHIDS_HAS_FORK_RSS 1
#endif

namespace {

using namespace monohids;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

trace::UserProfile busy_user(std::uint64_t seed) {
  trace::PopulationConfig pop;
  pop.user_count = 1;
  pop.seed = seed;
  auto users = trace::generate_population(pop);
  // One busy workstation: x20 session rates, as in micro_substrate.
  for (auto& rate : users[0].session_rate_per_hour) rate *= 20.0;
  return users[0];
}

/// Synthetic busy enterprise host: `rate` new flows per second for `seconds`
/// seconds, each from a fresh ephemeral source port (1024..65535, wrapping).
/// 70% TCP (SYN / SYN-ACK / ACK, 60% FIN-closed after ~300 ms, the rest
/// abandoned to idle out), 30% two-packet UDP lookups. Destinations span a
/// /16 so the distinct-IP feature works too. Abandoned and long-lived flows
/// accumulate: at 300 flows/s with the default 5-minute TCP idle timeout,
/// tens of thousands of flows are live at once.
std::vector<net::PacketRecord> synth_host_packets(net::Ipv4Address host, double rate,
                                                  double seconds, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const auto flow_count = static_cast<std::uint64_t>(rate * seconds);
  std::vector<net::PacketRecord> all;
  all.reserve(static_cast<std::size_t>(flow_count) * 5);
  std::uint16_t ephemeral = 1024;
  const int start_jitter = static_cast<int>(1e6 / rate) + 1;
  for (std::uint64_t f = 0; f < flow_count; ++f) {
    const auto start = static_cast<util::Timestamp>(static_cast<double>(f) / rate * 1e6) +
                       stats::sample_uniform_int(rng, 0, start_jitter);
    const bool tcp = rng.uniform01() < 0.7;
    const net::Ipv4Address dst(
        (93u << 24) + static_cast<std::uint32_t>(stats::sample_uniform_int(rng, 0, 65535)));
    const std::uint16_t sport = ephemeral;
    ephemeral = ephemeral == 65535 ? 1024 : ephemeral + 1;
    const std::uint16_t dport = tcp ? (rng.uniform01() < 0.4 ? 80 : 443) : 53;
    const net::FiveTuple tuple{host, dst, sport, dport,
                               tcp ? net::Protocol::Tcp : net::Protocol::Udp};
    net::PacketRecord out;
    out.tuple = tuple;
    net::PacketRecord back;
    back.tuple = tuple.reversed();
    if (tcp) {
      out.timestamp = start;
      out.tcp_flags = net::TcpFlags::Syn;
      all.push_back(out);
      back.timestamp = start + 200;
      back.tcp_flags = net::TcpFlags::Syn | net::TcpFlags::Ack;
      all.push_back(back);
      out.timestamp = start + 400;
      out.tcp_flags = net::TcpFlags::Ack;
      all.push_back(out);
      if (rng.uniform01() < 0.6) {
        out.timestamp = start + 300'000;
        out.tcp_flags = net::TcpFlags::Fin | net::TcpFlags::Ack;
        all.push_back(out);
        back.timestamp = start + 300'200;
        back.tcp_flags = net::TcpFlags::Fin | net::TcpFlags::Ack;
        all.push_back(back);
      }
    } else {
      out.timestamp = start;
      all.push_back(out);
      back.timestamp = start + 5'000;
      all.push_back(back);
    }
  }
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.timestamp < b.timestamp; });
  return all;
}

/// FNV-1a 64 over the raw bit patterns of a result's feature values and flow
/// stats. Printed with the report so separate binaries (e.g. MONOHIDS_OBS=ON
/// vs OFF builds) can assert bit-identical outputs by comparing one line.
std::uint64_t fnv1a_result(std::uint64_t hash, const features::PipelineResult& result) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  const auto mix = [&hash](std::uint64_t bits) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xFF;
      hash *= kPrime;
    }
  };
  for (features::FeatureKind f : features::kAllFeatures) {
    for (double v : result.matrix.of(f).values()) {
      std::uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(v));
      std::memcpy(&bits, &v, sizeof(bits));
      mix(bits);
    }
  }
  const net::FlowTableStats& s = result.flow_stats;
  for (std::uint64_t field : {s.packets_processed, s.flows_created, s.flows_ended_fin,
                              s.flows_ended_rst, s.flows_ended_timeout, s.flows_ended_flush,
                              s.syn_packets, s.max_live_flows}) {
    mix(field);
  }
  return hash;
}

bool identical(const features::PipelineResult& a, const features::PipelineResult& b) {
  if (!(a.flow_stats == b.flow_stats)) return false;
  for (features::FeatureKind f : features::kAllFeatures) {
    const auto av = a.matrix.of(f).values();
    const auto bv = b.matrix.of(f).values();
    if (av.size() != bv.size() || !std::equal(av.begin(), av.end(), bv.begin())) return false;
  }
  return true;
}

/// Best-of-N wall time for fn() -> PipelineResult; result from the last run.
template <typename Fn>
features::PipelineResult best_of(int repeat, double& best_ms, Fn&& fn) {
  features::PipelineResult result;
  best_ms = 1e300;
  for (int r = 0; r < repeat; ++r) {
    const auto start = Clock::now();
    result = fn();
    best_ms = std::min(best_ms, ms_since(start));
  }
  return result;
}

/// One reference-vs-streaming comparison over a materialized packet span.
struct Comparison {
  double reference_ms = 0.0;
  double streaming_ms = 0.0;
  std::uint64_t peak_live = 0;
  bool match = false;

  [[nodiscard]] double speedup() const {
    return streaming_ms > 0.0 ? reference_ms / streaming_ms : 0.0;
  }
};

Comparison compare(net::Ipv4Address monitored, std::span<const net::PacketRecord> packets,
                   int repeat, features::PipelineResult* streaming_out = nullptr) {
  features::PipelineConfig pipeline;
  pipeline.horizon = packets.back().timestamp + 1;
  Comparison c;
  const auto reference = best_of(repeat, c.reference_ms, [&] {
    return oracles::extract_features_reference(monitored, packets, pipeline);
  });
  auto streaming = best_of(repeat, c.streaming_ms, [&] {
    return features::extract_features(monitored, packets, pipeline);
  });
  c.peak_live = streaming.flow_stats.max_live_flows;
  c.match = identical(reference, streaming);
  if (streaming_out != nullptr) *streaming_out = std::move(streaming);
  return c;
}

#ifdef MONOHIDS_HAS_FORK_RSS
/// Runs fn() in a forked child and returns its peak RSS in KiB (-1 on error).
template <typename Fn>
long forked_peak_rss_kib(Fn&& fn) {
  const pid_t pid = fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    fn();
    _exit(0);
  }
  int status = 0;
  struct rusage usage{};
  if (wait4(pid, &status, 0, &usage) < 0) return -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return -1;
#if defined(__APPLE__)
  return static_cast<long>(usage.ru_maxrss / 1024);  // bytes on macOS
#else
  return static_cast<long>(usage.ru_maxrss);  // KiB on Linux
#endif
}

int run_rss_demo(const util::CliFlags& flags) {
  bench::banner("micro_ingest --rss",
                "streamed ingest peak RSS is bounded by the batch size; the "
                "materialized batch path grows with trace length");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const trace::UserProfile user = busy_user(seed);

  util::TextTable table({"trace", "batch path peak RSS (MiB)", "streamed peak RSS (MiB)"});
  table.set_alignment({util::Align::Left, util::Align::Right, util::Align::Right});
  for (const util::Duration days : {util::Duration{1}, util::Duration{4}}) {
    trace::GeneratorConfig config;
    config.weeks = 1;
    const util::Timestamp end = days * util::kMicrosPerDay;
    features::PipelineConfig pipeline;
    pipeline.horizon = end;

    const long batch_kib = forked_peak_rss_kib([&] {
      const trace::TraceGenerator gen(config);
      const auto packets = gen.generate_packets(user, 0, end);
      const auto result = features::extract_features(user.address, packets, pipeline);
      if (result.flow_stats.packets_processed == 0) _exit(1);
    });
    const long stream_kib = forked_peak_rss_kib([&] {
      const trace::TraceGenerator gen(config);
      features::IngestSession session(user.address, pipeline);
      gen.generate_packets_streamed(user, 0, end, session);
      const auto result = session.finish();
      if (result.flow_stats.packets_processed == 0) _exit(1);
    });
    if (batch_kib < 0 || stream_kib < 0) {
      std::cerr << "FAIL: could not measure a forked child\n";
      return 1;
    }
    table.add_row({std::to_string(days) + " day(s), busy user",
                   util::fixed(static_cast<double>(batch_kib) / 1024.0, 1),
                   util::fixed(static_cast<double>(stream_kib) / 1024.0, 1)});
  }
  std::cout << table.render();
  return 0;
}
#endif  // MONOHIDS_HAS_FORK_RSS

}  // namespace

int main(int argc, char** argv) {
  auto flags = bench::standard_flags(
      "Microbenchmark: streaming ingest engine vs the seed batch pipeline");
  flags.add_int("packets", 2'000'000, "approximate packet count for the generator workload");
  flags.add_int("flow-rate", 500, "synthetic workload: new flows per second");
  flags.add_int("flow-seconds", 1200, "synthetic workload: span in seconds");
  flags.add_int("repeat", 3, "repetitions per measurement (best-of)");
  flags.add_double("min-speedup", 2.0,
                   "fail (exit 1) if the synthetic-workload speedup falls below this");
  flags.add_bool("rss", false, "measure forked peak-RSS of batch vs streamed ingest");
  if (!flags.parse(argc, argv)) return 0;

#ifdef MONOHIDS_HAS_FORK_RSS
  if (flags.get_bool("rss")) return run_rss_demo(flags);
#else
  if (flags.get_bool("rss")) {
    std::cerr << "--rss requires a POSIX platform\n";
    return 1;
  }
#endif

  bench::PhaseTimings timings;
  bench::echo_standard_config(timings, flags);
  timings.config("packets", flags.get_int("packets"));
  timings.config("flow_rate", flags.get_int("flow-rate"));
  timings.config("flow_seconds", flags.get_int("flow-seconds"));
  timings.config("repeat", flags.get_int("repeat"));

  bench::banner("micro_ingest",
                "streaming ingest engine sustains >= --min-speedup x the seed batch "
                "pipeline's packet rate with bit-identical outputs");

  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const auto target = static_cast<std::size_t>(flags.get_int("packets"));
  const auto flow_rate = static_cast<double>(flags.get_int("flow-rate"));
  const auto flow_seconds = static_cast<double>(flags.get_int("flow-seconds"));
  const int repeat = std::max<int>(1, static_cast<int>(flags.get_int("repeat")));

  // --- (a) headline: synthetic busy enterprise host -----------------------
  const auto host = net::Ipv4Address::parse("10.0.0.1");
  const auto synth_start = Clock::now();
  const auto synth_packets = synth_host_packets(host, flow_rate, flow_seconds, seed);
  timings.record("materialize_synth", ms_since(synth_start));

  features::PipelineResult synth_result;
  const Comparison synth = compare(host, synth_packets, repeat, &synth_result);
  timings.record("synth_reference", synth.reference_ms);
  timings.record("synth_streaming", synth.streaming_ms);

  // --- (b) informational: generator busy-user trace -----------------------
  const auto materialize_start = Clock::now();
  const std::vector<net::PacketRecord> gen_packets = [&] {
    trace::GeneratorConfig config;
    config.weeks = 1;
    const trace::TraceGenerator gen(config);
    // One busy day, duplicated end-to-end until `target` packets.
    auto packets = gen.generate_packets(busy_user(seed), 0, util::kMicrosPerDay);
    while (packets.size() < target && packets.size() > 100) {
      auto more = packets;
      const util::Timestamp shift = packets.back().timestamp + 1;
      for (auto& p : more) p.timestamp += shift;
      packets.insert(packets.end(), more.begin(), more.end());
    }
    return packets;
  }();
  timings.record("materialize_trace", ms_since(materialize_start));
  const net::Ipv4Address monitored = busy_user(seed).address;

  features::PipelineResult generator_result;
  const Comparison generator = compare(monitored, gen_packets, repeat, &generator_result);
  timings.record("generator_reference", generator.reference_ms);
  timings.record("generator_streaming", generator.streaming_ms);

  // --- (c) zero-materialization: generator streamed straight into ingest --
  trace::GeneratorConfig gen_config;
  gen_config.weeks = 1;
  const trace::TraceGenerator trace_gen(gen_config);
  const trace::UserProfile user = busy_user(seed);
  features::PipelineConfig day_pipeline;
  day_pipeline.horizon = util::kMicrosPerDay;

  const auto batch_gen_start = Clock::now();
  const auto day_packets = trace_gen.generate_packets(user, 0, util::kMicrosPerDay);
  const auto batch_day = features::extract_features(monitored, day_packets, day_pipeline);
  const double batch_gen_ms = ms_since(batch_gen_start);
  timings.record("generate_then_extract", batch_gen_ms);

  const auto stream_gen_start = Clock::now();
  features::IngestSession session(monitored, day_pipeline);
  trace_gen.generate_packets_streamed(user, 0, util::kMicrosPerDay, session);
  const auto streamed_day = session.finish();
  const double stream_gen_ms = ms_since(stream_gen_start);
  timings.record("generate_streamed", stream_gen_ms);

  const bool day_matches = identical(batch_day, streamed_day);
  const bool all_match = synth.match && generator.match && day_matches;

  const double synth_ref_mpps =
      static_cast<double>(synth_packets.size()) / (synth.reference_ms * 1000.0);
  const double synth_stream_mpps =
      static_cast<double>(synth_packets.size()) / (synth.streaming_ms * 1000.0);

  util::TextTable table({"measurement", "value"});
  table.set_alignment({util::Align::Left, util::Align::Right});
  table.add_row({"enterprise host: packets", std::to_string(synth_packets.size())});
  table.add_row({"enterprise host: peak live flows", std::to_string(synth.peak_live)});
  table.add_row({"enterprise host: seed batch pipeline (ms)",
                 util::fixed(synth.reference_ms, 1)});
  table.add_row({"enterprise host: streaming engine (ms)",
                 util::fixed(synth.streaming_ms, 1)});
  table.add_row({"enterprise host: seed batch pipeline (Mpkts/s)",
                 util::fixed(synth_ref_mpps, 2)});
  table.add_row({"enterprise host: streaming engine (Mpkts/s)",
                 util::fixed(synth_stream_mpps, 2)});
  table.add_row({"enterprise host: speedup (floor-gated)",
                 util::fixed(synth.speedup(), 2) + "x"});
  table.add_row({"generator trace: packets", std::to_string(gen_packets.size())});
  table.add_row({"generator trace: peak live flows", std::to_string(generator.peak_live)});
  table.add_row({"generator trace: seed batch pipeline (ms)",
                 util::fixed(generator.reference_ms, 1)});
  table.add_row({"generator trace: streaming engine (ms)",
                 util::fixed(generator.streaming_ms, 1)});
  table.add_row({"generator trace: speedup (informational)",
                 util::fixed(generator.speedup(), 2) + "x"});
  table.add_row({"one busy day, materialize+extract (ms)", util::fixed(batch_gen_ms, 1)});
  table.add_row({"one busy day, streamed ingest (ms)", util::fixed(stream_gen_ms, 1)});
  table.add_row({"streaming == batch outputs", all_match ? "yes" : "NO"});
  std::cout << table.render();

  // One digest over every streaming-path output; build-flavor comparisons
  // (scripts/check_obs_overhead.sh) grep this line.
  std::uint64_t digest = 14695981039346656037ULL;  // FNV-1a offset basis
  digest = fnv1a_result(digest, synth_result);
  digest = fnv1a_result(digest, generator_result);
  digest = fnv1a_result(digest, streamed_day);
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(digest));
  std::cout << "# output digest: " << digest_hex << '\n';

  timings.record("verify", 0.0);
  timings.write_if_requested(flags, "micro_ingest");
  bench::write_metrics_if_requested(flags);

  if (!all_match) {
    std::cerr << "FAIL: streaming and batch pipelines diverged\n";
    return 1;
  }
  const double floor = flags.get_double("min-speedup");
  if (synth.speedup() < floor) {
    std::cerr << "FAIL: enterprise-host pipeline speedup " << synth.speedup()
              << "x below the " << floor << "x floor\n";
    return 1;
  }
  return 0;
}
