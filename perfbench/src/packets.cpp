// Workloads `capture` and `storm`: pcap bytes -> finished DaemonResult.
//
// The hosts are eight fixed machines of the paper's 350-user population
// (its default seed), one per stratum of expected traffic volume, so every
// run measures the same mix of light and heavy hosts. The run's seed
// re-seeds each host's traffic (and the Storm overlay): a seed picks which
// five weeks of their traffic are replayed. Each host's trace is rendered
// to an in-memory pcap image (generate_packets + write_pcap; `storm` merges
// a one-week Storm zombie in from week 2 first). One image is resident at a
// time. Rendering is the workload's set-up; the measured path is a fresh
// hids::Daemon fed by consume_pcap and closed by finish(), ingesting on the
// calling thread (see daemon_config), replayed several times per image
// (closed loop: a lossless file replay, nothing is dropped).
//
// The traced run adds, per host, one pass through each layer's public entry
// point on the same bytes: the pcap reader into a null sink, the flow table
// alone, an IngestSession, an inline Daemon on the parsed packets, and the
// image through a worker-thread Daemon. Layer times are differences of
// those passes, as documented in README.md.
#include <algorithm>
#include <numeric>
#include <sstream>
#include <streambuf>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "checks.hpp"
#include "report.hpp"
#include "sim/config_io.hpp"
#include "trace/generator.hpp"
#include "trace/population.hpp"
#include "trace/storm.hpp"
#include "util/rng.hpp"
#include "util/rss.hpp"

namespace perfbench {

namespace {

using namespace monohids;

/// Hosts per run, one per volume stratum of the population.
constexpr std::size_t kHosts = 8;
/// Replays of the measured path per rendered image, at least; the host's
/// time is their median.
constexpr std::size_t kMinReplays = 3;
/// The zombie switches on at the start of this week.
constexpr std::uint32_t kStormWeek = 2;

/// Read-only istream buffer over an in-memory pcap image (no copy).
class ImageBuffer : public std::streambuf {
 public:
  explicit ImageBuffer(std::string& image) {
    setg(image.data(), image.data(), image.data() + image.size());
  }
};

/// Drops parsed packets: the pcap reader on its own.
class NullSink final : public features::PacketSink {
 public:
  void on_batch(std::span<const net::PacketRecord>) override {}
};

/// Keeps every parsed packet (untimed: feeds the in-memory layer passes).
class CollectingSink final : public features::PacketSink {
 public:
  void on_batch(std::span<const net::PacketRecord> batch) override {
    packets.insert(packets.end(), batch.begin(), batch.end());
  }
  std::vector<net::PacketRecord> packets;
};

/// The run's hosts: one per stratum of expected traffic volume (the sum of
/// the profile's per-app session rates), at the stratum's middle rank, so
/// every seed measures the same mix of light and heavy hosts.
double expected_volume(const trace::UserProfile& user) {
  const auto& rates = user.session_rate_per_hour;
  return std::accumulate(rates.begin(), rates.end(), 0.0);
}

std::vector<std::size_t> stratified_hosts(const std::vector<trace::UserProfile>& users) {
  std::vector<std::size_t> by_volume(users.size());
  std::iota(by_volume.begin(), by_volume.end(), 0);
  const auto volume = [&](std::size_t u) { return expected_volume(users[u]); };
  std::stable_sort(by_volume.begin(), by_volume.end(),
                   [&](std::size_t a, std::size_t b) { return volume(a) < volume(b); });
  std::vector<std::size_t> hosts;
  for (std::size_t k = 0; k < kHosts; ++k) {
    hosts.push_back(by_volume[(2 * k + 1) * users.size() / (2 * kHosts)]);
  }
  return hosts;
}

void digest_packets(Digest& digest, std::span<const net::PacketRecord> packets) {
  for (const net::PacketRecord& p : packets) {
    digest.add_value(p.timestamp);
    digest.add_value(p.tuple.src_ip.value());
    digest.add_value(p.tuple.dst_ip.value());
    digest.add_value(p.tuple.src_port);
    digest.add_value(p.tuple.dst_port);
    digest.add_value(p.tuple.protocol);
    digest.add_value(p.tcp_flags);
    digest.add_value(p.payload_bytes);
  }
}

/// One host's rendered input.
struct HostInput {
  std::vector<net::PacketRecord> packets;  ///< what the image encodes, time-ordered
  std::string image;                       ///< pcap bytes
  std::string overlay_digest;              ///< storm only
};

HostInput render_host(const trace::TraceGenerator& generator, const trace::UserProfile& user,
                      const trace::StormConfig* storm) {
  HostInput input;
  input.packets = generator.generate_packets(user, 0, generator.config().horizon());
  if (storm != nullptr) {
    auto zombie = trace::generate_storm_packets(*storm, user.address, 0, util::kMicrosPerWeek);
    const auto begin = static_cast<util::Timestamp>(kStormWeek) * util::kMicrosPerWeek;
    for (net::PacketRecord& p : zombie) p.timestamp += begin;
    Digest overlay;
    digest_packets(overlay, zombie);
    input.overlay_digest = overlay.hex();
    std::vector<net::PacketRecord> merged(input.packets.size() + zombie.size());
    // Clean packets first on equal timestamps, like a stable sort of the
    // concatenation.
    std::merge(input.packets.begin(), input.packets.end(), zombie.begin(), zombie.end(),
               merged.begin(), [](const net::PacketRecord& a, const net::PacketRecord& b) {
                 return a.timestamp < b.timestamp;
               });
    input.packets = std::move(merged);
  }
  std::ostringstream out;
  trace::write_pcap(out, input.packets);
  input.image = std::move(out).str();
  return input;
}

/// The measured daemon: program defaults, but ingest on the calling thread.
/// In the default worker-thread mode the replay's wall time depends on
/// whether the machine runs the worker beside the parser: on a shared VM the
/// same image took 500 ms in some minutes and 650 ms in others, with parse
/// and daemon work unchanged. The worker mode is still timed by the traced
/// run, as hids.handoff_ms.
hids::DaemonConfig daemon_config(const trace::TraceGenerator& generator,
                                 const trace::UserProfile& user) {
  hids::DaemonConfig config;
  config.monitored = user.address;
  config.user_id = user.user_id;
  config.pipeline.grid = generator.config().grid;
  config.pipeline.horizon = generator.config().horizon();
  config.deliver_inline = true;
  return config;
}

/// The measured path: bytes -> finished DaemonResult, construction included.
struct E2eRun {
  double seconds = 0.0;
  trace::PcapReadResult read;
  std::unique_ptr<hids::DaemonResult> result;
};

/// Evicts the image from every CPU cache level. A capture's bytes are new
/// to the daemon, but a replayed image is not: without this, how much of
/// it a large shared last-level cache still holds (which depends on what
/// else runs on the machine) would set the replay's speed.
#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("clflushopt"))) void flush_lines_unordered(std::string& image) {
  for (std::size_t at = 0; at < image.size(); at += 64) _mm_clflushopt(image.data() + at);
}
#endif

void evict_from_caches(std::string& image) {
#if defined(__x86_64__) || defined(__i386__)
  // clflushopt is some 40x faster than clflush on large ranges.
  if (__builtin_cpu_supports("clflushopt")) {
    flush_lines_unordered(image);
  } else {
    for (std::size_t at = 0; at < image.size(); at += 64) _mm_clflush(image.data() + at);
  }
  _mm_mfence();
#else
  (void)image;
#endif
}

E2eRun run_e2e(const hids::DaemonConfig& config, std::string& image) {
  evict_from_caches(image);
  ImageBuffer buffer(image);
  std::istream in(&buffer);
  E2eRun run;
  const auto start = Clock::now();
  {
    hids::Daemon daemon(config);
    run.read = daemon.consume_pcap(in);
    run.result = std::make_unique<hids::DaemonResult>(daemon.finish());
  }
  run.seconds = seconds_since(start);
  return run;
}

/// Per-layer sums over the traced hosts (seconds and counts).
struct LayerTotals {
  double e2e = 0.0;     ///< measured path: inline daemon from bytes
  double worker = 0.0;  ///< the same through a worker-thread daemon
  double parse = 0.0;
  double flow_table = 0.0;
  double ingest = 0.0;
  double inline_daemon = 0.0;
  std::uint64_t pcap_bytes = 0;
  std::uint64_t pcap_records = 0;
  std::uint64_t pcap_skipped = 0;
  std::uint64_t flows_created = 0;
  std::uint64_t flows_timed_out = 0;
  std::uint64_t max_live_flows = 0;
  std::uint64_t bins_completed = 0;
  std::uint64_t alerts = 0;
  std::uint64_t rollovers = 0;
  std::uint64_t queue_peak = 0;
};

/// One pass through each layer's public entry point on one host's bytes.
/// `e2e_*` describe the measured (inline) path, `worker_*` the same image
/// through a worker-thread daemon.
void trace_layers(const hids::DaemonConfig& config, std::string& image, double e2e_seconds,
                  const hids::DaemonResult& e2e_result, double worker_seconds,
                  const hids::DaemonResult& worker_result, LayerTotals& totals) {
  const std::size_t batch = features::kDefaultIngestBatch;
  {
    ImageBuffer buffer(image);
    std::istream in(&buffer);
    NullSink sink;
    trace::PcapReadResult read;
    totals.parse += timed([&] { read = trace::stream_pcap_recovering(in, sink, batch); });
    totals.pcap_bytes += image.size();
    totals.pcap_records += read.packet_count + read.truncated + read.skipped_non_ipv4 +
                           read.skipped_protocol;
    totals.pcap_skipped += read.truncated + read.skipped_non_ipv4 + read.skipped_protocol;
  }
  CollectingSink parsed;
  {
    ImageBuffer buffer(image);
    std::istream in(&buffer);
    (void)trace::stream_pcap_recovering(in, parsed, batch);
  }
  const std::span<const net::PacketRecord> packets(parsed.packets);
  const util::Timestamp last = packets.empty() ? 0 : packets.back().timestamp;

  // Flow table alone, in the chunking IngestSession uses.
  net::FlowTableStats flow_stats;
  totals.flow_table += timed([&] {
    net::FlowTable table(config.monitored, config.pipeline.flow_config);
    constexpr std::size_t kChunk = 4096;
    for (std::size_t at = 0; at < packets.size(); at += kChunk) {
      table.process_batch(packets.subspan(at, std::min(kChunk, packets.size() - at)));
      table.clear_events();
    }
    table.flush(std::max<util::Timestamp>(config.pipeline.horizon, last));
    table.clear_events();
    flow_stats = table.stats();
  });
  totals.flows_created += flow_stats.flows_created;
  totals.flows_timed_out += flow_stats.flows_ended_timeout;
  totals.max_live_flows = std::max(totals.max_live_flows, flow_stats.max_live_flows);

  totals.ingest += timed([&] {
    features::IngestSession session(config.monitored, config.pipeline);
    for (std::size_t at = 0; at < packets.size(); at += batch) {
      session.on_batch(packets.subspan(at, std::min(batch, packets.size() - at)));
    }
    (void)session.finish();
  });

  totals.inline_daemon += timed([&] {
    hids::Daemon daemon(config);
    for (std::size_t at = 0; at < packets.size(); at += batch) {
      daemon.on_batch(packets.subspan(at, std::min(batch, packets.size() - at)));
    }
    (void)daemon.finish();
  });

  totals.e2e += e2e_seconds;
  totals.worker += worker_seconds;
  totals.bins_completed += e2e_result.stats.bins_completed;
  totals.alerts += e2e_result.stats.alerts_emitted;
  totals.rollovers += e2e_result.stats.rollovers;
  totals.queue_peak =
      std::max<std::uint64_t>(totals.queue_peak, worker_result.stats.queue_peak);
}

}  // namespace

void run_packet_workload(const Options& options, bool storm, Report& report) {
  const trace::PopulationConfig population;  // the paper's 350 users (its default seed)
  sim::ScenarioConfig scenario;
  scenario.population = population;
  const trace::TraceGenerator generator(scenario.generator);
  trace::StormConfig storm_config;
  storm_config.seed = util::derive_seed(options.seed, "perfbench/storm", 0);

  echo_common_config(report);
  report.config("workload", storm ? "storm" : "capture");
  report.config("scenario_version",
                std::to_string(static_cast<int>(scenario.generator.scenario_version)));
  report.config("users", std::to_string(population.user_count));
  report.config("hosts", std::to_string(kHosts));
  report.config("weeks", std::to_string(scenario.generator.weeks));
  report.config("bin_minutes",
                std::to_string(scenario.generator.grid.width() / util::kMicrosPerMinute));
  const hids::DaemonConfig defaults;
  report.config("percentile", std::to_string(defaults.percentile));
  report.config("queue_capacity", std::to_string(defaults.queue_capacity));
  report.config("ingest_batch", std::to_string(features::kDefaultIngestBatch));
  report.config("thread_mode", "inline (worker mode timed in the traced run)");
  if (storm) report.config("storm_week", std::to_string(kStormWeek));

  const auto users = trace::generate_population(population);
  const auto hosts = stratified_hosts(users);
  Digest config_digest;
  config_digest.add(sim::serialize_scenario_config(scenario));
  if (storm) config_digest.add_value(storm_config.seed);
  report.input("config", config_digest.hex());
  Digest population_digest;
  for (const trace::UserProfile& u : users) population_digest.add_profile(u);
  report.input("population", population_digest.hex());

  // Per host: render (set-up), then replays of the measured path until the
  // host's share of the run's time, proportional to its expected volume, is
  // used (at least kMinReplays).
  // The traced run adds one pass through each layer after those replays
  // and then replays the measured path again: those "traced" replays,
  // against the first ones, give the tracing overhead.
  std::uint64_t packets = 0;
  double seconds = 0.0;         // sum of per-host median replay times
  double traced_seconds = 0.0;  // the same after the layer passes
  std::vector<double> setup;
  LayerTotals t;
  double total_volume = 0.0;
  for (std::size_t host : hosts) total_volume += expected_volume(users[host]);
  double volume_done = 0.0;
  const auto start = Clock::now();
  for (std::size_t k = 0; k < hosts.size(); ++k) {
    // The same machine every run; the run's seed draws its traffic.
    trace::UserProfile user = users[hosts[k]];
    user.seed = util::derive_seed(user.seed, "perfbench/traffic", options.seed);
    HostInput input;
    setup.push_back(
        timed([&] { input = render_host(generator, user, storm ? &storm_config : nullptr); }));
    Digest image;
    image.add(input.image);
    report.input("host." + std::to_string(k), image.hex());
    if (storm) report.input("overlay." + std::to_string(k), input.overlay_digest);
    if (options.digests_only) continue;

    const std::uint64_t image_packets = input.packets.size();
    const hids::DaemonConfig config = daemon_config(generator, user);
    const auto expected = batch_alarms(config, input.packets);
    input.packets = {};  // the image is the only resident copy from here on

    const auto replay = [&](const hids::DaemonConfig& daemon, std::vector<double>& times) {
      E2eRun run = run_e2e(daemon, input.image);
      times.push_back(run.seconds);
      const PacketRunCheck check = check_packet_run(run.read, *run.result, image_packets, expected);
      report.operations(check.attempted, check.failed,
                        "host " + std::to_string(user.user_id) + ": " + check.problem);
      return run;
    };
    volume_done += expected_volume(users[hosts[k]]);
    const double host_deadline = options.seconds * volume_done / total_volume;
    std::vector<double> replays;
    E2eRun last;
    while (replays.size() < kMinReplays || seconds_since(start) < host_deadline) {
      last = replay(config, replays);
    }
    report.note("host " + std::to_string(k) + " (user " + std::to_string(user.user_id) +
                "): " + std::to_string(image_packets) + " packets, render " +
                std::to_string(setup.back()) + " s, " + std::to_string(replays.size()) +
                " replays, median " + std::to_string(median(replays)) + " s");
    packets += image_packets;
    seconds += median(replays);
    if (options.trace) {
      hids::DaemonConfig worker_config = config;
      worker_config.deliver_inline = false;
      std::vector<double> worker;
      E2eRun worker_run;
      while (worker.size() < kMinReplays) worker_run = replay(worker_config, worker);
      trace_layers(config, input.image, median(replays), *last.result, median(worker),
                   *worker_run.result, t);
      std::vector<double> traced;
      while (traced.size() < kMinReplays) (void)replay(config, traced);
      traced_seconds += median(traced);
    }
  }
  if (options.digests_only) return;

  const double pkts_per_s = static_cast<double>(packets) / seconds;
  report.note("pkts_per_s = " + std::to_string(pkts_per_s) + " 1/s over " +
              std::to_string(packets) + " packets per replay round");
  report.note("failed_frac = " + std::to_string(static_cast<double>(report.failed()) /
                                                static_cast<double>(report.attempted())));
  report.note("peak_rss_mib = " +
              std::to_string(static_cast<double>(util::peak_rss_kib()) / 1024.0) + " MiB");
  if (!options.trace) {
    report.metric("ops_per_s", pkts_per_s, "1/s");
    report.metric("setup_s", median(setup), "s");
    return;
  }

  report.metric("trace.overhead_frac", traced_seconds / seconds - 1.0, "ratio");
  report.metric("proc.peak_rss_mib", static_cast<double>(util::peak_rss_kib()) / 1024.0, "MiB");
  const std::vector<std::pair<std::string, double>> layers = {
      {"trace.pcap_parse_ms", t.parse},
      {"net.flow_table_ms", t.flow_table},
      {"features.extract_ms", t.ingest - t.flow_table},
      {"hids.scan_learn_ms", t.inline_daemon - t.ingest},
      {"hids.handoff_ms", t.worker - t.parse - t.inline_daemon},
  };
  std::size_t dominant = 0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    report.metric(layers[i].first, layers[i].second * 1e3, "ms");
    if (layers[i].second > layers[dominant].second) dominant = i;
  }
  const double share = layers[dominant].second / t.e2e;
  report.note("dominant layer: " + layers[dominant].first + " at " +
              std::to_string(100.0 * share) + "% of pcap->alarm wall time");
  report.metric("dominant_layer_share", share, "ratio");
  report.metric("trace.pcap_bytes", static_cast<double>(t.pcap_bytes), "count");
  report.metric("trace.pcap_records", static_cast<double>(t.pcap_records), "count");
  report.metric("trace.pcap_skipped", static_cast<double>(t.pcap_skipped), "count");
  report.metric("net.flows_created", static_cast<double>(t.flows_created), "count");
  report.metric("net.flows_timed_out", static_cast<double>(t.flows_timed_out), "count");
  report.metric("net.max_live_flows", static_cast<double>(t.max_live_flows), "count");
  report.metric("hids.bins_completed", static_cast<double>(t.bins_completed), "count");
  report.metric("hids.alerts", static_cast<double>(t.alerts), "count");
  report.metric("hids.rollovers", static_cast<double>(t.rollovers), "count");
  report.metric("hids.queue_peak", static_cast<double>(t.queue_peak), "count");
}

}  // namespace perfbench
