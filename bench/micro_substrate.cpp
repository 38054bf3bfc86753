// Substrate microbenchmarks (google-benchmark): throughput of the pieces a
// production deployment would care about — the flow table, the feature
// pipeline, quantile estimation (exact vs streaming), threshold assignment
// and the trace generators.
#include <benchmark/benchmark.h>

#include <cmath>
#include <string>

#include "features/pipeline.hpp"
#include "hids/evaluator.hpp"
#include "sim/scenario.hpp"
#include "stats/empirical.hpp"
#include "stats/gk_sketch.hpp"
#include "stats/kernels.hpp"
#include "stats/p2_quantile.hpp"
#include "stats/quantile.hpp"
#include "trace/generator.hpp"
#include "trace/population.hpp"
#include "trace/storm.hpp"

namespace {

using namespace monohids;

std::vector<net::PacketRecord> benchmark_packets(std::size_t target) {
  trace::PopulationConfig pop;
  pop.user_count = 1;
  trace::GeneratorConfig config;
  config.weeks = 1;
  const trace::TraceGenerator gen(config);
  auto users = trace::generate_population(pop);
  // Scale one busy user until the day produces enough packets.
  for (auto& rate : users[0].session_rate_per_hour) rate *= 20.0;
  auto packets = gen.generate_packets(users[0], 0, util::kMicrosPerDay);
  while (packets.size() < target && packets.size() > 100) {
    auto more = packets;
    for (auto& p : more) p.timestamp += packets.back().timestamp + 1;
    packets.insert(packets.end(), more.begin(), more.end());
  }
  return packets;
}

void BM_FlowTableProcess(benchmark::State& state) {
  const auto packets = benchmark_packets(200'000);
  const auto monitored = packets.front().tuple.src_ip;
  for (auto _ : state) {
    net::FlowTable table(monitored);
    for (const auto& p : packets) {
      table.process(p);
      benchmark::DoNotOptimize(table.active_flows());
    }
    state.counters["packets"] = static_cast<double>(packets.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * packets.size()));
}
BENCHMARK(BM_FlowTableProcess)->Unit(benchmark::kMillisecond);

void BM_FeaturePipeline(benchmark::State& state) {
  const auto packets = benchmark_packets(200'000);
  const auto monitored = packets.front().tuple.src_ip;
  features::PipelineConfig config;
  config.horizon = 8 * util::kMicrosPerWeek;
  for (auto _ : state) {
    const auto result = features::extract_features(monitored, packets, config);
    benchmark::DoNotOptimize(result.flow_stats.packets_processed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * packets.size()));
}
BENCHMARK(BM_FeaturePipeline)->Unit(benchmark::kMillisecond);

void BM_ExactQuantile(benchmark::State& state) {
  util::Xoshiro256 rng(5);
  std::vector<double> samples;
  const auto n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) samples.push_back(rng.uniform01() * 1e6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::quantile_nearest_rank(samples, 0.99));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_ExactQuantile)->Arg(672)->Arg(672 * 5)->Arg(100000);

void BM_P2Quantile(benchmark::State& state) {
  util::Xoshiro256 rng(6);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> samples;
  for (std::size_t i = 0; i < n; ++i) samples.push_back(rng.uniform01() * 1e6);
  for (auto _ : state) {
    stats::P2Quantile sketch(0.99);
    for (double v : samples) sketch.add(v);
    benchmark::DoNotOptimize(sketch.value());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_P2Quantile)->Arg(672 * 5)->Arg(100000);

void BM_GkSketch(benchmark::State& state) {
  util::Xoshiro256 rng(7);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> samples;
  for (std::size_t i = 0; i < n; ++i) samples.push_back(rng.uniform01() * 1e6);
  for (auto _ : state) {
    stats::GkSketch sketch(0.01);
    for (double v : samples) sketch.add(v);
    benchmark::DoNotOptimize(sketch.quantile(0.99));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_GkSketch)->Arg(672 * 5)->Arg(100000);

void BM_BinLevelGeneration(benchmark::State& state) {
  trace::PopulationConfig pop;
  pop.user_count = static_cast<std::uint32_t>(state.range(0));
  const auto users = trace::generate_population(pop);
  const trace::TraceGenerator gen{trace::GeneratorConfig{}};
  for (auto _ : state) {
    for (const auto& u : users) {
      benchmark::DoNotOptimize(gen.generate_features(u));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * users.size()));
}
BENCHMARK(BM_BinLevelGeneration)->Arg(10)->Arg(50)->Unit(benchmark::kMillisecond);

void BM_ThresholdAssignment(benchmark::State& state) {
  sim::ScenarioConfig config;
  config.set_users(static_cast<std::uint32_t>(state.range(0)));
  config.set_weeks(1);
  const auto scenario = sim::build_scenario(config);
  const auto train = hids::week_distributions(scenario.matrices,
                                              features::FeatureKind::TcpConnections, 0);
  const hids::PercentileHeuristic p99(0.99);
  const hids::KneePartialGrouper grouper;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hids::assign_thresholds(train, grouper, p99));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * train.size()));
}
BENCHMARK(BM_ThresholdAssignment)->Arg(50)->Arg(350)->Unit(benchmark::kMillisecond);

void BM_StormGeneration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::generate_storm_features({}));
  }
}
BENCHMARK(BM_StormGeneration)->Unit(benchmark::kMillisecond);

// --- stats::kernels rows ----------------------------------------------------
// Arg(0): scalar back-end; Arg(1): dispatched (best available) back-end.
// Count-valued arenas mirror real traffic features (heavy ties).

std::vector<double> kernel_arena(std::size_t n) {
  util::Xoshiro256 rng(7);
  std::vector<double> arena(n);
  for (double& v : arena) v = static_cast<double>(rng() % 400);
  std::sort(arena.begin(), arena.end());
  return arena;
}

const stats::kernels::Ops& kernel_backend(std::int64_t arg) {
  return arg == 0 ? *stats::kernels::ops_for(stats::kernels::Backend::Scalar)
                  : stats::kernels::active();
}

void BM_KernelRankSortedSweep(benchmark::State& state) {
  const auto arena = kernel_arena(30'000);
  util::Xoshiro256 rng(11);
  std::vector<double> queries(4000);
  for (double& q : queries) q = rng.uniform01() * 420.0 - 10.0;
  std::sort(queries.begin(), queries.end());
  std::vector<std::uint32_t> ranks(queries.size());
  const auto& ops = kernel_backend(state.range(0));
  state.SetLabel(ops.name);
  for (auto _ : state) {
    ops.rank_sorted(arena, queries, 0.0, ranks.data());
    benchmark::DoNotOptimize(ranks.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * queries.size()));
}
BENCHMARK(BM_KernelRankSortedSweep)->Arg(0)->Arg(1);

void BM_KernelRankUnsortedBatch(benchmark::State& state) {
  const auto arena = kernel_arena(30'000);
  util::Xoshiro256 rng(13);
  std::vector<double> queries(4000);
  for (double& q : queries) q = rng.uniform01() * 420.0 - 10.0;
  std::vector<std::uint32_t> ranks(queries.size());
  const auto& ops = kernel_backend(state.range(0));
  state.SetLabel(ops.name);
  for (auto _ : state) {
    ops.rank_unsorted(arena, queries, 0.0, ranks.data());
    benchmark::DoNotOptimize(ranks.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * queries.size()));
}
BENCHMARK(BM_KernelRankUnsortedBatch)->Arg(0)->Arg(1);

void BM_KernelRankGrid(benchmark::State& state) {
  const auto arena = kernel_arena(10'000);
  util::Xoshiro256 rng(17);
  std::vector<double> thresholds(600);
  for (double& t : thresholds) t = rng.uniform01() * 400.0;
  std::sort(thresholds.begin(), thresholds.end());
  std::vector<double> sizes(64);
  for (std::size_t i = 0; i < sizes.size(); ++i) sizes[i] = static_cast<double>(i + 1);
  std::vector<std::uint32_t> ranks(thresholds.size() * sizes.size());
  const auto& ops = kernel_backend(state.range(0));
  state.SetLabel(ops.name);
  for (auto _ : state) {
    ops.rank_grid(arena, thresholds, sizes, ranks.data());
    benchmark::DoNotOptimize(ranks.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * ranks.size()));
}
BENCHMARK(BM_KernelRankGrid)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Fleet row shape: 24-point compact rows (~20 distinct counts each, so
// T ~ 21 candidate thresholds) against a 32-size attack sweep — the
// small-arena kernel's home. Each iteration ranks 512 distinct rows, as a
// fleet pass does: one row repeated would let the branch predictor learn
// the merge-scan's exits, which no real sweep allows.
struct FleetRows {
  std::vector<std::vector<double>> rows;
  std::vector<std::vector<double>> thresholds;
  std::size_t queries = 0;  ///< sum of |thresholds| over the rows
};

FleetRows fleet_rows() {
  util::Xoshiro256 rng(29);
  FleetRows out;
  for (int r = 0; r < 512; ++r) {
    std::vector<double> row(24);
    for (double& v : row) v = static_cast<double>(rng() % 60);
    std::sort(row.begin(), row.end());
    std::vector<double> candidates;
    for (double v : row) {
      if (candidates.empty() || candidates.back() != v) candidates.push_back(v);
    }
    candidates.push_back(row.back() + 1.0);
    out.queries += candidates.size();
    out.rows.push_back(std::move(row));
    out.thresholds.push_back(std::move(candidates));
  }
  return out;
}

void BM_KernelRankGridSmallArena(benchmark::State& state) {
  const FleetRows fleet = fleet_rows();
  std::vector<double> sizes(32);
  for (std::size_t i = 0; i < sizes.size(); ++i) sizes[i] = static_cast<double>(i + 1);
  std::vector<std::uint32_t> ranks(64 * sizes.size());
  const auto& ops = kernel_backend(state.range(0));
  state.SetLabel(std::string(ops.name) + " n=24 T~" +
                 std::to_string(fleet.queries / fleet.rows.size()) + " S=32");
  for (auto _ : state) {
    for (std::size_t r = 0; r < fleet.rows.size(); ++r) {
      ops.rank_grid(fleet.rows[r], fleet.thresholds[r], sizes, ranks.data());
      benchmark::DoNotOptimize(ranks.data());
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * fleet.queries * sizes.size()));
}
BENCHMARK(BM_KernelRankGridSmallArena)->Arg(0)->Arg(1);

void BM_KernelRankUnsortedSmallArena(benchmark::State& state) {
  const FleetRows fleet = fleet_rows();
  // AttackModel::mean_fn's batch: t - size for 32 sizes at one threshold.
  std::vector<std::vector<double>> queries;
  for (const auto& candidates : fleet.thresholds) {
    std::vector<double> q(32);
    const double t = candidates[candidates.size() / 2];
    for (std::size_t i = 0; i < q.size(); ++i) q[i] = t - static_cast<double>(i + 1);
    queries.push_back(std::move(q));
  }
  std::vector<std::uint32_t> ranks(32);
  const auto& ops = kernel_backend(state.range(0));
  state.SetLabel(std::string(ops.name) + " n=24 t=32");
  for (auto _ : state) {
    for (std::size_t r = 0; r < fleet.rows.size(); ++r) {
      ops.rank_unsorted(fleet.rows[r], queries[r], 0.0, ranks.data());
      benchmark::DoNotOptimize(ranks.data());
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * fleet.rows.size() * 32));
}
BENCHMARK(BM_KernelRankUnsortedSmallArena)->Arg(0)->Arg(1);

// Homogeneous fleet pool: 8192 hosts' ascending 24-sample compact rows,
// each host at its own traffic level, with the pool's maximum near 256k
// (the TCP and TCP-SYN pools of an 8192-host fleet). One iteration is what
// assign_thresholds does before the heuristic runs: merge_sorted_spans
// into a reused buffer, then view_of_sorted(..., true) with its rank table.
void BM_FleetPoolMergeAndView(benchmark::State& state) {
  util::Xoshiro256 rng(31);
  std::vector<std::vector<double>> rows(8192, std::vector<double>(24));
  for (auto& row : rows) {
    const double level = std::exp(rng.uniform01() * std::log(2000.0));
    for (double& v : row) v = std::floor(level * std::exp(rng.uniform01() * std::log(128.0)));
    std::sort(row.begin(), row.end());
  }
  const std::vector<std::span<const double>> parts(rows.begin(), rows.end());
  std::vector<double> pooled;
  stats::merge_sorted_spans(parts, pooled);
  state.SetLabel("n=" + std::to_string(pooled.size()) +
                 " max=" + std::to_string(static_cast<std::uint64_t>(pooled.back())));
  for (auto _ : state) {
    stats::merge_sorted_spans(parts, pooled);
    const auto view = stats::EmpiricalDistribution::view_of_sorted(pooled, true);
    benchmark::DoNotOptimize(view.rank_table().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * pooled.size()));
}
BENCHMARK(BM_FleetPoolMergeAndView)->Unit(benchmark::kMillisecond);

void BM_KernelCountExceed(benchmark::State& state) {
  util::Xoshiro256 rng(19);
  std::vector<double> bins(100'000);
  for (double& v : bins) v = static_cast<double>(rng() % 50);
  const auto& ops = kernel_backend(state.range(0));
  state.SetLabel(ops.name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.count_exceed(bins, 40.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * bins.size()));
}
BENCHMARK(BM_KernelCountExceed)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
