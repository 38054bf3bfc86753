// Microbench: the live capture-to-alarm daemon (hids::Daemon).
//
// Four headline rows, emitted via --json for the committed BENCH_daemon.json
// trajectory and gated in CI bench-smoke:
//
//   1. inline_drain — the pure processing path: packets/sec through
//      order-filter -> flow table -> extractor -> bin scan -> learner with
//      no queue in the way. Deterministic; gated by --min-pkts-per-sec.
//   2. pcap_drain — the path a real capture takes: the same trace as pcap
//      bytes (written once, untimed) through consume_pcap + finish() on an
//      inline daemon, so the pcap parser is in the timed span. Gated by
//      --min-pcap-pkts-per-sec.
//   3. saturate_offer — a producer thread offer()ing at full speed against
//      the bounded queue: sustained packets/sec up to the first dropped
//      batch, plus total drops (the backpressure story).
//   4. storm_ttd — a Storm zombie switched on mid-stream after the daemon
//      has trained on clean weeks: wall position of the first alert past
//      infection start, in simulated minutes (time-to-detection).
//
// The bench is self-verifying: the daemon's alarm set is recomputed with the
// batch pipeline (extract_features + nearest-rank week-k thresholds) and any
// divergence of either drain row exits non-zero — a perf number from a wrong
// daemon is worthless.
#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>

#include "bench/common.hpp"
#include "hids/daemon.hpp"
#include "stats/quantile.hpp"
#include "trace/generator.hpp"
#include "trace/pcap.hpp"
#include "trace/population.hpp"
#include "trace/storm.hpp"

namespace {

using namespace monohids;

std::vector<net::PacketRecord> user_trace(const trace::UserProfile& user,
                                          util::Duration horizon) {
  const trace::TraceGenerator generator{trace::GeneratorConfig{}};
  return generator.generate_packets(user, 0, horizon);
}

/// Merges a one-week Storm zombie (shifted to start at `storm_begin`) into a
/// clean trace, keeping time order.
std::vector<net::PacketRecord> infect(std::vector<net::PacketRecord> clean,
                                      net::Ipv4Address zombie_addr,
                                      util::Timestamp storm_begin) {
  trace::StormConfig storm;
  auto zombie = trace::generate_storm_packets(storm, zombie_addr, 0, util::kMicrosPerWeek);
  for (net::PacketRecord& p : zombie) p.timestamp += storm_begin;
  clean.insert(clean.end(), zombie.begin(), zombie.end());
  std::stable_sort(clean.begin(), clean.end(),
                   [](const net::PacketRecord& a, const net::PacketRecord& b) {
                     return a.timestamp < b.timestamp;
                   });
  return clean;
}

hids::DaemonConfig daemon_config(const trace::UserProfile& user, util::BinGrid grid,
                                 util::Duration horizon) {
  hids::DaemonConfig config;
  config.monitored = user.address;
  config.user_id = user.user_id;
  config.pipeline.grid = grid;
  config.pipeline.horizon = horizon;
  return config;
}

/// Feeds `packets` through a daemon in `batch`-sized slices via on_batch.
hids::DaemonResult run_daemon(const hids::DaemonConfig& config,
                              std::span<const net::PacketRecord> packets,
                              std::size_t batch) {
  hids::Daemon daemon(config);
  for (std::size_t off = 0; off < packets.size(); off += batch) {
    daemon.on_batch(packets.subspan(off, std::min(batch, packets.size() - off)));
  }
  return daemon.finish();
}

/// The batch-pipeline ground truth the daemon must reproduce bit for bit:
/// extract_features over the whole trace, week-k nearest-rank thresholds
/// applied to week k+1, alarms where value > threshold. Returns the alarm
/// set as (feature index, bin) pairs in scan order.
std::vector<std::pair<std::size_t, std::uint64_t>> batch_alarms(
    const hids::DaemonConfig& config, std::span<const net::PacketRecord> packets) {
  const auto result = features::extract_features(config.monitored, packets, config.pipeline);
  const std::uint64_t bins_per_week = util::kMicrosPerWeek / config.pipeline.grid.width();
  const std::uint64_t total_bins =
      result.matrix.of(features::FeatureKind::TcpConnections).values().size();

  std::vector<std::pair<std::size_t, std::uint64_t>> alarms;
  for (std::uint64_t bin = bins_per_week; bin < total_bins; ++bin) {
    const std::uint32_t week = static_cast<std::uint32_t>(bin / bins_per_week);
    for (std::size_t i = 0; i < features::kFeatureCount; ++i) {
      const auto& series = result.matrix.of(features::kAllFeatures[i]);
      const double threshold =
          stats::quantile_nearest_rank(series.week_slice(week - 1), config.percentile);
      if (series.values()[bin] > threshold) alarms.emplace_back(i, bin);
    }
  }
  // Scan order is bin-major; rebuild it (the loop above is bin-major already
  // but alarms within a bin must follow feature order, which it does).
  return alarms;
}

/// True when the daemon raised exactly the batch pipeline's alarms.
bool same_alarms(const std::vector<std::pair<std::size_t, std::uint64_t>>& expected,
                 const hids::DaemonResult& result) {
  if (expected.size() != result.alerts.size()) return false;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (expected[i].first != features::index_of(result.alerts[i].feature) ||
        expected[i].second != result.alerts[i].bin) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = bench::standard_flags("live daemon: drain throughput, backpressure, storm TTD");
  flags.add_int("user", 7, "user id to monitor");
  flags.add_int("batch", 4096, "ingest batch size in packets");
  flags.add_int("queue", 8, "bounded queue capacity for the saturation row");
  flags.add_int("storm-week", 2, "week the Storm zombie switches on");
  flags.add_double("min-pkts-per-sec", 0.0, "gate: fail if inline drain falls below");
  flags.add_double("min-pcap-pkts-per-sec", 0.0, "gate: fail if pcap drain falls below");
  flags.add_double("ttd-max-minutes", 0.0, "gate: fail if storm TTD exceeds (0 = off)");
  if (!flags.parse(argc, argv)) return 0;

  bench::PhaseTimings timings;
  bench::echo_standard_config(timings, flags);
  bench::banner("micro: live daemon",
                "behavioral per-host detection can run as an online agent");

  const auto weeks = static_cast<std::uint32_t>(std::max<long long>(2, flags.get_int("weeks")));
  const auto batch = static_cast<std::size_t>(std::max<long long>(1, flags.get_int("batch")));
  const auto grid =
      util::BinGrid::minutes(static_cast<std::uint64_t>(flags.get_int("bin-minutes")));
  const auto horizon = static_cast<util::Duration>(weeks) * util::kMicrosPerWeek;

  trace::PopulationConfig pop;
  pop.user_count = static_cast<std::uint32_t>(flags.get_int("users"));
  pop.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const auto users = trace::generate_population(pop);
  const trace::UserProfile& user =
      users[static_cast<std::size_t>(flags.get_int("user")) % users.size()];

  const auto clean = timings.time_setup("trace_build", [&] { return user_trace(user, horizon); });
  timings.config("trace_packets", static_cast<std::int64_t>(clean.size()));
  timings.config("batch", static_cast<std::int64_t>(batch));

  hids::DaemonConfig config = daemon_config(user, grid, horizon);

  // --- Row 1: inline drain (deterministic; the gated pkts/s floor). -------
  config.deliver_inline = true;
  double drain_ms = 0.0;
  hids::DaemonResult drain = [&] {
    const auto start = std::chrono::steady_clock::now();
    auto result = run_daemon(config, clean, batch);
    drain_ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                         start)
                   .count();
    return result;
  }();
  timings.record("inline_drain", drain_ms);
  const double drain_pps =
      static_cast<double>(drain.stats.packets_ingested) / (drain_ms / 1000.0);
  timings.config("drain_pkts_per_sec", static_cast<std::int64_t>(drain_pps));
  std::cout << "inline drain: " << drain.stats.packets_ingested << " pkts in "
            << util::fixed(drain_ms, 1) << " ms = " << util::fixed(drain_pps / 1e6, 2)
            << " Mpkt/s, " << drain.stats.bins_completed << " bins, "
            << drain.alerts.size() << " alerts\n";

  // Differential check: the drain run must match the batch pipeline exactly.
  const auto expected = batch_alarms(config, clean);
  if (!same_alarms(expected, drain)) {
    std::cerr << "FAIL: daemon alarm set diverged from the batch pipeline ("
              << drain.alerts.size() << " vs " << expected.size() << " alarms)\n";
    return 1;
  }
  std::cout << "differential check: " << expected.size()
            << " alarms bit-identical to the batch pipeline\n";

  // --- Row 2: pcap drain (bytes -> alarms; gated pkts/s floor). ------------
  double pcap_ms = 0.0;
  trace::PcapReadResult imported;
  hids::DaemonResult pcap_drain = [&] {
    std::istringstream capture(timings.time_setup("pcap_build", [&] {
      std::ostringstream out;
      trace::write_pcap(out, clean);
      return std::move(out).str();
    }));
    const auto start = std::chrono::steady_clock::now();
    hids::Daemon daemon(config);
    imported = daemon.consume_pcap(capture, batch);
    auto result = daemon.finish();
    pcap_ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                        start)
                  .count();
    return result;
  }();
  timings.record("pcap_drain", pcap_ms);
  const double pcap_pps =
      static_cast<double>(pcap_drain.stats.packets_ingested) / (pcap_ms / 1000.0);
  timings.config("pcap_pkts_per_sec", static_cast<std::int64_t>(pcap_pps));
  std::cout << "pcap drain: " << pcap_drain.stats.packets_ingested << " pkts in "
            << util::fixed(pcap_ms, 1) << " ms = " << util::fixed(pcap_pps / 1e6, 2)
            << " Mpkt/s\n";
  if (!imported.stream_error.empty() || pcap_drain.stats.packets_ingested != clean.size() ||
      !same_alarms(expected, pcap_drain)) {
    std::cerr << "FAIL: pcap drain diverged from the batch pipeline ("
              << pcap_drain.stats.packets_ingested << " of " << clean.size()
              << " pkts ingested, " << pcap_drain.alerts.size() << " vs " << expected.size()
              << " alarms" << (imported.stream_error.empty() ? "" : ", ")
              << imported.stream_error << ")\n";
    return 1;
  }

  // --- Row 3: saturation via offer() against the bounded queue. -----------
  config.deliver_inline = false;
  config.queue_capacity = static_cast<std::size_t>(std::max<long long>(1, flags.get_int("queue")));
  std::uint64_t offered_before_drop = 0;
  double first_drop_ms = 0.0;
  double saturate_ms = 0.0;
  hids::DaemonResult saturate = [&] {
    hids::Daemon daemon(config);
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t offered = 0;
    bool dropped = false;
    for (std::size_t off = 0; off < clean.size(); off += batch) {
      const std::size_t n = std::min(batch, clean.size() - off);
      const bool ok = daemon.offer(std::span<const net::PacketRecord>(clean.data() + off, n));
      if (ok) offered += n;
      if (!ok && !dropped) {
        dropped = true;
        offered_before_drop = offered;
        first_drop_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      }
    }
    if (!dropped) {
      offered_before_drop = offered;
      first_drop_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    }
    auto result = daemon.finish();
    saturate_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
    return result;
  }();
  timings.record("saturate_offer", saturate_ms);
  const double sustained_pps =
      first_drop_ms > 0.0 ? static_cast<double>(offered_before_drop) / (first_drop_ms / 1000.0)
                          : 0.0;
  timings.config("sustained_pkts_per_sec", static_cast<std::int64_t>(sustained_pps));
  timings.config("dropped_batches", static_cast<std::int64_t>(saturate.stats.batches_dropped));
  timings.config("queue_peak", static_cast<std::int64_t>(saturate.stats.queue_peak));
  std::cout << "saturation (queue=" << config.queue_capacity << "): "
            << util::fixed(sustained_pps / 1e6, 2) << " Mpkt/s sustained to first drop, "
            << saturate.stats.batches_dropped << " batches dropped, queue peak "
            << saturate.stats.queue_peak << '\n';

  // --- Row 4: Storm time-to-detection, injected mid-stream. ---------------
  const auto storm_week = static_cast<std::uint32_t>(
      std::clamp<long long>(flags.get_int("storm-week"), 1, weeks - 1));
  const auto storm_begin = static_cast<util::Timestamp>(storm_week) * util::kMicrosPerWeek;
  const auto infected =
      timings.time_setup("storm_build", [&] { return infect(clean, user.address, storm_begin); });

  config.deliver_inline = true;
  double ttd_run_ms = 0.0;
  hids::DaemonResult storm_run = [&] {
    const auto start = std::chrono::steady_clock::now();
    auto result = run_daemon(config, infected, batch);
    ttd_run_ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                           start)
                     .count();
    return result;
  }();
  timings.record("storm_drain", ttd_run_ms);

  double ttd_minutes = -1.0;
  for (const hids::Alert& alert : storm_run.alerts) {
    if (alert.bin_start >= storm_begin) {
      ttd_minutes = static_cast<double>(alert.bin_start - storm_begin) /
                    static_cast<double>(util::kMicrosPerMinute);
      break;
    }
  }
  timings.config("storm_week", static_cast<std::int64_t>(storm_week));
  timings.config("storm_ttd_minutes", util::fixed(ttd_minutes, 1));
  std::cout << "storm TTD: zombie on at week " << storm_week << ", first alert after "
            << util::fixed(ttd_minutes, 1) << " simulated minutes ("
            << storm_run.alerts.size() << " alerts total)\n";

  timings.write_if_requested(flags, "micro_daemon");
  bench::write_metrics_if_requested(flags);

  // --- Gates (CI bench-smoke). ---------------------------------------------
  const double min_pps = flags.get_double("min-pkts-per-sec");
  if (min_pps > 0.0 && drain_pps < min_pps) {
    std::cerr << "FAIL: inline drain " << util::fixed(drain_pps, 0) << " pkts/s below floor "
              << util::fixed(min_pps, 0) << '\n';
    return 1;
  }
  const double min_pcap_pps = flags.get_double("min-pcap-pkts-per-sec");
  if (min_pcap_pps > 0.0 && pcap_pps < min_pcap_pps) {
    std::cerr << "FAIL: pcap drain " << util::fixed(pcap_pps, 0) << " pkts/s below floor "
              << util::fixed(min_pcap_pps, 0) << '\n';
    return 1;
  }
  const double ttd_max = flags.get_double("ttd-max-minutes");
  if (ttd_max > 0.0 && (ttd_minutes < 0.0 || ttd_minutes > ttd_max)) {
    std::cerr << "FAIL: storm TTD " << util::fixed(ttd_minutes, 1)
              << " min outside gate (max " << util::fixed(ttd_max, 1) << ")\n";
    return 1;
  }
  return 0;
}
