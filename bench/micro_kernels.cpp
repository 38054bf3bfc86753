// Microbenchmark for the batched SIMD evaluation kernels (stats::kernels).
//
// Measures (a) the end-to-end analysis wall time of the figure-3a +
// figure-4b suite (utility_boxplots + resourceful_attack) on the batched
// kernels against an A side that runs figure 3a's evaluation loop with the
// per-call seed utility heuristic from tests/oracles — one exceedance and
// one per-size mean_fn binary-search sweep per candidate threshold —
// verifying the utilities are bit-identical, and (b) raw kernel rows: an
// ascending threshold sweep answered by per-call std::upper_bound vs one
// merge-scan, and an unsorted rank batch on the scalar vs dispatched
// back-end. Exits nonzero when outputs diverge or the A/B ratio lands below
// --min-speedup (default 1.85x).
//
// The A side covers figure 3a only: its per-threshold sweeps are what the
// kernels replaced. The floors are the earlier whole-seed-pipeline floors
// scaled by the measured median of (this A side / that one), rounded up, so
// the batched suite may take no longer than those floors allowed.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>

#include "bench/common.hpp"
#include "hids/evaluator.hpp"
#include "hids/heuristics.hpp"
#include "oracles/kernels.hpp"
#include "sim/analysis_cache.hpp"
#include "sim/experiments.hpp"
#include "stats/kernels.hpp"
#include "util/rng.hpp"

namespace {

using namespace monohids;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

struct SuiteResult {
  sim::UtilityComparisonResult utilities;
  sim::ResourcefulAttackResult mimicry;
};

SuiteResult run_suite(const sim::Scenario& scenario, features::FeatureKind feature,
                      double* boxplots_ms = nullptr, double* mimicry_ms = nullptr) {
  SuiteResult result;
  auto start = Clock::now();
  result.utilities = sim::utility_boxplots(scenario, feature, 0.4);
  if (boxplots_ms != nullptr) *boxplots_ms = ms_since(start);
  start = Clock::now();
  result.mimicry = sim::resourceful_attack(scenario, feature);
  if (mimicry_ms != nullptr) *mimicry_ms = ms_since(start);
  return result;
}

/// Runs the batched suite on a cleared cache so every distribution,
/// threshold and curve is rebuilt from scratch.
double timed_suite(const sim::Scenario& scenario, features::FeatureKind feature,
                   SuiteResult& out, double* boxplots_ms = nullptr,
                   double* mimicry_ms = nullptr) {
  auto& cache = scenario.analysis();
  cache.clear();
  const auto start = Clock::now();
  out = run_suite(scenario, feature, boxplots_ms, mimicry_ms);
  return ms_since(start);
}

/// The A side: the loop sim::utility_boxplots runs, with the per-call seed
/// utility heuristic in place of the batched one, on a cleared cache.
double timed_percall_sweep(const sim::Scenario& scenario, features::FeatureKind feature,
                           sim::UtilityComparisonResult& out) {
  auto& cache = scenario.analysis();
  cache.clear();
  out = {};
  const auto start = Clock::now();
  const auto rounds = sim::canonical_rounds();
  const hids::AttackModel attack =
      sim::make_attack_model(scenario, feature, rounds.front().train_week);
  const oracles::SeedUtilityHeuristic heuristic(0.4);
  for (const auto& grouper : sim::canonical_groupers()) {
    const auto outcome = hids::evaluate_rounds(scenario.matrices, feature, rounds, *grouper,
                                               heuristic, attack, 0, &cache);
    out.policy_names.push_back(outcome.policy_name);
    out.utilities.push_back(outcome.utilities(0.4));
  }
  return ms_since(start);
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = bench::standard_flags(
      "Microbenchmark: batched SIMD evaluation kernels vs per-call binary searches");
  flags.add_double("min-speedup", 1.85,
                   "fail when the per-call fig3a sweep over the batched fig3a+fig4b "
                   "suite is below this ratio");
  flags.add_int("kernel-samples", 30000, "arena size for the raw kernel rows");
  flags.add_int("kernel-queries", 4000, "query batch size for the raw kernel rows");
  flags.add_int("kernel-repeat", 50, "repetitions of each raw kernel row");
  if (!flags.parse(argc, argv)) return 0;
  bench::PhaseTimings timings;
  // The scenario is a fixture here: synthesizing it dominated total_ms and
  // drowned the kernel trajectory, so it goes to the setup section.
  const auto scenario = bench::scenario_setup_from_flags(flags, timings);
  const auto feature = bench::feature_from_flags(flags);
  const double min_speedup = flags.get_double("min-speedup");
  timings.config("min_speedup", util::fixed(min_speedup, 2));
  timings.config("simd_backend",
                 std::string(stats::kernels::backend_name(stats::kernels::active_backend())));

  bench::banner("micro_kernels",
                "batched rank/exceedance kernels keep fig3a bit-identical while the "
                "fig3a+fig4b analysis suite takes <= 1/" +
                    std::string(util::fixed(min_speedup, 2)) +
                    " of the per-call fig3a sweep");

  // --- (a) end-to-end analysis suite: per-call sweep vs batched ----------
  SuiteResult batched_result;
  // Warm-up pass absorbs one-time costs (thread pool spin-up, allocator)
  // outside the measured A/B pair.
  (void)timed_suite(scenario, feature, batched_result);
  sim::UtilityComparisonResult percall_result;
  const double percall_sweep_ms = timed_percall_sweep(scenario, feature, percall_result);
  timings.record("suite_percall_sweep", percall_sweep_ms);
  double batched_boxplots_ms = 0.0, batched_mimicry_ms = 0.0;
  const double suite_batched_ms = timed_suite(scenario, feature, batched_result,
                                              &batched_boxplots_ms, &batched_mimicry_ms);
  timings.record("suite_batched", suite_batched_ms);
  timings.record("suite_batched_fig3a", batched_boxplots_ms);
  timings.record("suite_batched_fig4b", batched_mimicry_ms);

  const bool outputs_match =
      percall_result.policy_names == batched_result.utilities.policy_names &&
      percall_result.utilities == batched_result.utilities.utilities;
  const double suite_speedup = suite_batched_ms > 0.0
                                   ? percall_sweep_ms / suite_batched_ms
                                   : std::numeric_limits<double>::infinity();

  // --- (b) raw kernel rows ------------------------------------------------
  const auto n = static_cast<std::size_t>(flags.get_int("kernel-samples"));
  const auto t = static_cast<std::size_t>(flags.get_int("kernel-queries"));
  const auto repeat = static_cast<std::size_t>(flags.get_int("kernel-repeat"));
  util::Xoshiro256 rng(42);
  std::vector<double> arena(n);
  for (double& v : arena) v = static_cast<double>(rng() % 400);
  std::sort(arena.begin(), arena.end());
  std::vector<double> sorted_queries(t), unsorted_queries(t);
  for (double& q : unsorted_queries) q = rng.uniform01() * 420.0 - 10.0;
  sorted_queries = unsorted_queries;
  std::sort(sorted_queries.begin(), sorted_queries.end());
  std::vector<std::uint32_t> ranks(t);

  const auto& scalar = *stats::kernels::ops_for(stats::kernels::Backend::Scalar);
  const auto& dispatched = stats::kernels::active();

  std::uint64_t checksum = 0;
  const auto percall_start = Clock::now();
  for (std::size_t r = 0; r < repeat; ++r) {
    for (std::size_t j = 0; j < t; ++j) {
      ranks[j] = static_cast<std::uint32_t>(
          std::upper_bound(arena.begin(), arena.end(), sorted_queries[j]) - arena.begin());
    }
    checksum += ranks[t / 2];
  }
  const double percall_ms = ms_since(percall_start);
  timings.record("kernel_sorted_percall_upper_bound", percall_ms);

  const auto sweep_start = Clock::now();
  for (std::size_t r = 0; r < repeat; ++r) {
    dispatched.rank_sorted(arena, sorted_queries, 0.0, ranks.data());
    checksum += ranks[t / 2];
  }
  const double sweep_ms = ms_since(sweep_start);
  timings.record("kernel_sorted_merge_scan", sweep_ms);

  const auto unsorted_scalar_start = Clock::now();
  for (std::size_t r = 0; r < repeat; ++r) {
    scalar.rank_unsorted(arena, unsorted_queries, 0.0, ranks.data());
    checksum += ranks[t / 2];
  }
  const double unsorted_scalar_ms = ms_since(unsorted_scalar_start);
  timings.record("kernel_unsorted_scalar", unsorted_scalar_ms);

  const auto unsorted_simd_start = Clock::now();
  for (std::size_t r = 0; r < repeat; ++r) {
    dispatched.rank_unsorted(arena, unsorted_queries, 0.0, ranks.data());
    checksum += ranks[t / 2];
  }
  const double unsorted_simd_ms = ms_since(unsorted_simd_start);
  timings.record("kernel_unsorted_dispatched", unsorted_simd_ms);

  // Rank-table row: integer-count arenas (every traffic feature) answer the
  // same unsorted batch with O(1) cumulative-table loads.
  std::vector<std::uint32_t> cum;
  const bool table_ok = stats::kernels::build_rank_table(arena, cum);
  double table_ms = 0.0;
  if (table_ok) {
    const auto n32 = static_cast<std::uint32_t>(arena.size());
    const auto table_start = Clock::now();
    for (std::size_t r = 0; r < repeat; ++r) {
      for (std::size_t j = 0; j < t; ++j) {
        ranks[j] = stats::kernels::rank_from_table(cum, n32, unsorted_queries[j]);
      }
      checksum += ranks[t / 2];
    }
    table_ms = ms_since(table_start);
    timings.record("kernel_unsorted_rank_table", table_ms);
  }

  const double sweep_speedup =
      sweep_ms > 0.0 ? percall_ms / sweep_ms : std::numeric_limits<double>::infinity();
  const double unsorted_speedup = unsorted_simd_ms > 0.0
                                      ? unsorted_scalar_ms / unsorted_simd_ms
                                      : std::numeric_limits<double>::infinity();

  util::TextTable table({"measurement", "value"});
  table.set_alignment({util::Align::Left, util::Align::Right});
  table.add_row({"SIMD back-end (dispatched)",
                 std::string(stats::kernels::backend_name(stats::kernels::active_backend()))});
  table.add_row({"fig3a sweep, per-call seed heuristic (ms)",
                 util::fixed(percall_sweep_ms, 1)});
  table.add_row({"suite (fig3a+fig4b), batched kernels (ms)",
                 util::fixed(suite_batched_ms, 1)});
  table.add_row({"per-call sweep / batched suite", util::fixed(suite_speedup, 2) + "x"});
  table.add_row({"batched == per-call utilities", outputs_match ? "yes" : "NO"});
  table.add_row({"rank sweep x" + std::to_string(repeat) + ", per-call upper_bound (ms)",
                 util::fixed(percall_ms, 3)});
  table.add_row({"rank sweep x" + std::to_string(repeat) + ", merge-scan (ms)",
                 util::fixed(sweep_ms, 3)});
  table.add_row({"sorted-sweep speedup", util::fixed(sweep_speedup, 1) + "x"});
  table.add_row({"unsorted batch x" + std::to_string(repeat) + ", scalar (ms)",
                 util::fixed(unsorted_scalar_ms, 3)});
  table.add_row({"unsorted batch x" + std::to_string(repeat) + ", dispatched (ms)",
                 util::fixed(unsorted_simd_ms, 3)});
  table.add_row({"unsorted-batch speedup", util::fixed(unsorted_speedup, 2) + "x"});
  if (table_ok) {
    const double table_speedup = table_ms > 0.0 ? unsorted_scalar_ms / table_ms
                                                : std::numeric_limits<double>::infinity();
    table.add_row({"unsorted batch x" + std::to_string(repeat) + ", rank table (ms)",
                   util::fixed(table_ms, 3)});
    table.add_row({"rank-table speedup vs scalar", util::fixed(table_speedup, 1) + "x"});
  }
  table.add_row({"checksum", std::to_string(checksum % 1000)});
  std::cout << table.render();

  timings.write_if_requested(flags, "micro_kernels");
  bench::write_metrics_if_requested(flags);

  if (!outputs_match) {
    std::cerr << "FAIL: batched and per-call fig3a utilities diverged\n";
    return 1;
  }
  if (suite_speedup < min_speedup) {
    std::cerr << "FAIL: per-call sweep / batched suite " << suite_speedup
              << "x below the " << min_speedup << "x target\n";
    return 1;
  }
  return 0;
}
