// Workload `fleet`: build_fleet_scenario, then evaluate_fleet_policy over
// the canonical rounds × groupers × six features.
//
// Each iteration builds a fleet from scratch (the set-up, timed as setup_s)
// and evaluates every policy on it kEvalPasses times, each pass timed on its
// own. The analysis cache keeps only two expanded weeks, so every pass over
// the six features expands its weeks again and does the same work; the
// evaluation time is the median over all passes of the run.
// The fleet runs under its own defaults (v2 contract, shard size, sketch
// epsilon, grid points); only the size is the benchmark's. Two shards of
// the default size keep the cross-shard pooled fold in the measured path.
//
// The traced run replays the build's layers serially over one shard through
// their public entry points (PopulationBuilder::build,
// render_features_v2_tile, sort_counts + GkSketch::from_sorted +
// quantile_batch, the pooled GkSketch::merge fold) and splits evaluation
// into the FleetAnalysisCache::week expansions and the rest.
#include <algorithm>

#include "hids/heuristics.hpp"
#include "report.hpp"
#include "sim/config_io.hpp"
#include "sim/experiments.hpp"
#include "sim/fleet.hpp"
#include "stats/kernels.hpp"
#include "trace/population.hpp"
#include "util/rng.hpp"
#include "util/rss.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using namespace monohids;

constexpr std::uint32_t kWeeks = 2;
constexpr std::uint32_t kShards = 2;
constexpr std::uint32_t kAttackSteps = 32;
/// Utility weight of the heuristic and of the ranking check (micro_fleet's).
constexpr double kUtilityWeight = 0.5;
/// A run always measures at least this many builds.
constexpr int kMinIterations = 3;
/// Evaluation passes per built fleet. One pass is a fraction of a second
/// of short parallel regions; many of them give its median a steady value.
constexpr int kEvalPasses = 4;

std::vector<hids::EvaluationRound> rounds_within(std::uint32_t weeks) {
  std::vector<hids::EvaluationRound> rounds;
  for (const hids::EvaluationRound& round : sim::canonical_rounds()) {
    if (round.test_week < weeks) rounds.push_back(round);
  }
  return rounds;
}

/// Serial replay of one shard of the build, layer by layer (seconds).
struct BuildLayers {
  double population = 0.0;
  double render = 0.0;
  double sketch = 0.0;
  double merge = 0.0;
};

BuildLayers trace_build_shard(const sim::FleetConfig& config) {
  BuildLayers t;
  const std::uint32_t users = std::min(config.shard_size, config.base.population.user_count);
  const trace::TraceGenerator generator(config.base.generator);
  const std::uint64_t total_bins = generator.config().grid.bin_count(generator.config().horizon());
  const std::uint64_t bins_per_week = util::kMicrosPerWeek / generator.config().grid.width();
  const std::uint32_t weeks = config.base.generator.weeks;
  const std::uint32_t m = config.grid_points;
  std::vector<double> qs(m);
  for (std::uint32_t k = 0; k < m; ++k) qs[k] = static_cast<double>(k) / (m - 1);

  std::vector<trace::UserProfile> profiles(users);
  t.population = timed([&] {
    const trace::PopulationBuilder builder(config.base.population);
    for (std::uint32_t id = 0; id < users; ++id) profiles[id] = builder.build(id);
  });

  const std::size_t cells = std::size_t{features::kFeatureCount} * weeks;
  std::vector<stats::GkSketch> sketches;
  sketches.reserve(std::size_t{users} * cells);
  std::vector<double> scratch;
  std::vector<double> row(m);
  for (std::uint32_t id = 0; id < users; ++id) {
    features::FeatureMatrix matrix;
    t.render += timed([&] {
      for (auto& series : matrix.series) {
        series = features::BinnedSeries(generator.config().grid, generator.config().horizon());
      }
      for (std::uint64_t begin = 0; begin < total_bins; begin += bins_per_week) {
        generator.render_features_v2_tile(profiles[id], begin,
                                          std::min(total_bins, begin + bins_per_week), matrix);
      }
    });
    t.sketch += timed([&] {
      for (features::FeatureKind feature : features::kAllFeatures) {
        for (std::uint32_t week = 0; week < weeks; ++week) {
          const auto slice = matrix.of(feature).week_slice(week);
          scratch.assign(slice.begin(), slice.end());
          if (!stats::kernels::sort_counts(scratch)) std::sort(scratch.begin(), scratch.end());
          stats::GkSketch sketch =
              stats::GkSketch::from_sorted(scratch, config.sketch_epsilon);
          sketch.quantile_batch(qs, row);
          sketches.push_back(std::move(sketch));
        }
      }
    });
  }

  std::vector<stats::GkSketch> pooled(cells, stats::GkSketch(config.sketch_epsilon));
  t.merge = timed([&] {
    for (std::uint32_t id = 0; id < users; ++id) {
      for (std::size_t cell = 0; cell < cells; ++cell) {
        pooled[cell].merge(sketches[std::size_t{id} * cells + cell]);
      }
    }
  });
  return t;
}

/// One evaluation pass; returns mean utilities per (feature, grouper) and
/// adds the week-expansion time to `expand_seconds` when tracing.
std::vector<double> evaluate(const sim::FleetScenario& fleet, double* expand_seconds) {
  const auto groupers = sim::canonical_groupers();
  const auto rounds = rounds_within(fleet.week_count());
  const hids::UtilityHeuristic heuristic(kUtilityWeight);
  std::vector<double> utilities;
  for (features::FeatureKind feature : features::kAllFeatures) {
    if (expand_seconds != nullptr) {
      *expand_seconds += timed([&] {
        for (const hids::EvaluationRound& round : rounds) {
          (void)fleet.analysis().week(feature, round.train_week);
          (void)fleet.analysis().week(feature, round.test_week);
        }
      });
    }
    const auto attack = fleet.analysis().attack_model(feature, rounds.front().train_week,
                                                      kAttackSteps);
    for (const auto& grouper : groupers) {
      double sum = 0.0;
      for (const hids::EvaluationRound& round : rounds) {
        sum += sim::evaluate_fleet_policy(fleet, feature, round, *grouper, heuristic, *attack)
                   .mean_utility(kUtilityWeight);
      }
      utilities.push_back(sum / static_cast<double>(rounds.size()));
    }
  }
  return utilities;
}

}  // namespace

void run_fleet_workload(const Options& options, Report& report) {
  // Fleet defaults (v2 contract, shard size, sketch epsilon, grid points);
  // each iteration builds the fleet of the next seed derived from the run's.
  const auto fleet_config = [&](int i) {
    sim::FleetConfig config;
    config.set_users(kShards * config.shard_size);
    config.set_weeks(kWeeks);
    config.set_seed(
        util::derive_seed(options.seed, "perfbench/fleet", static_cast<std::uint64_t>(i)));
    return config;
  };
  const sim::FleetConfig config = fleet_config(0);

  echo_common_config(report);
  report.config("workload", "fleet");
  report.config("scenario_version",
                std::to_string(static_cast<int>(config.base.generator.scenario_version)));
  report.config("users", std::to_string(config.base.population.user_count));
  report.config("weeks", std::to_string(kWeeks));
  report.config("bin_minutes",
                std::to_string(config.base.generator.grid.width() / util::kMicrosPerMinute));
  report.config("shard_size", std::to_string(config.shard_size));
  report.config("sketch_epsilon", std::to_string(config.sketch_epsilon));
  report.config("grid_points", std::to_string(config.grid_points));
  report.config("heuristic", hids::UtilityHeuristic(kUtilityWeight).name());

  // Digests of the first fleets' configs and populations; later fleets
  // follow from the same derivation.
  for (int i = 0; i < kMinIterations; ++i) {
    const sim::FleetConfig c = fleet_config(i);
    Digest digest;
    digest.add(sim::serialize_scenario_config(c.base));
    digest.add_value(c.shard_size);
    digest.add_value(c.sketch_epsilon);
    digest.add_value(c.grid_points);
    const trace::PopulationBuilder builder(c.base.population);
    for (std::uint32_t id = 0; id < c.base.population.user_count; ++id) {
      digest.add_profile(builder.build(id));
    }
    report.input("fleet." + std::to_string(i), digest.hex());
  }
  if (options.digests_only) return;

  const std::size_t evaluations =
      features::kFeatureCount * sim::canonical_groupers().size() * rounds_within(kWeeks).size();
  std::vector<double> setup;
  std::vector<double> eval;
  const auto start = Clock::now();
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  for (int i = 0; i < kMinIterations || seconds_since(start) < budget; ++i) {
    std::unique_ptr<sim::FleetScenario> fleet;
    setup.push_back(timed([&] {
      fleet = std::make_unique<sim::FleetScenario>(sim::build_fleet_scenario(fleet_config(i)));
    }));
    std::vector<double> first;
    std::vector<double> passes;
    for (int pass = 0; pass < kEvalPasses; ++pass) {
      std::vector<double> utilities;
      passes.push_back(timed([&] { utilities = evaluate(*fleet, nullptr); }));
      if (pass == 0) first = utilities;

      // Output check per feature: full-diversity >= partial >= homogeneous
      // (canonical order: homogeneous, full, partial), and every pass
      // bit-identical to the fleet's first.
      for (std::size_t f = 0; f < features::kFeatureCount; ++f) {
        const double homogeneous = utilities[3 * f];
        const double full = utilities[3 * f + 1];
        const double partial = utilities[3 * f + 2];
        const std::uint64_t per_feature = evaluations / features::kFeatureCount;
        const bool ordered = full >= partial && partial >= homogeneous;
        const bool repeated = std::equal(utilities.begin() + 3 * f,
                                         utilities.begin() + 3 * f + 3, first.begin() + 3 * f);
        const std::string where =
            "fleet " + std::to_string(i) + " pass " + std::to_string(pass) + ", " +
            std::string(features::name_of(features::kAllFeatures[f])) + ": ";
        report.operations(per_feature, ordered && repeated ? 0 : per_feature,
                          where + (ordered ? "utilities differ from the first pass"
                                           : "utility order full >= partial >= homogeneous "
                                             "violated"));
      }
    }
    eval.insert(eval.end(), passes.begin(), passes.end());
    report.note("fleet " + std::to_string(i) + ": build " + std::to_string(setup.back()) +
                " s, evaluation median " + std::to_string(median(passes)) + " s (" +
                std::to_string(*std::min_element(passes.begin(), passes.end())) + " to " +
                std::to_string(*std::max_element(passes.begin(), passes.end())) + ") over " +
                std::to_string(passes.size()) + " passes");
  }

  const double eval_s = median(eval);
  report.note("fleets: " + std::to_string(setup.size()) + ", evaluation passes: " +
              std::to_string(eval.size()) +
              ", policy evaluations per pass: " + std::to_string(evaluations));
  report.note("eval_s = " + std::to_string(eval_s) + " s");
  report.note("failed_frac = " + std::to_string(static_cast<double>(report.failed()) /
                                                static_cast<double>(report.attempted())));
  report.note("peak_rss_mib = " +
              std::to_string(static_cast<double>(util::peak_rss_kib()) / 1024.0) + " MiB");
  if (!options.trace) {
    report.metric("ops_per_s", static_cast<double>(evaluations) / eval_s, "1/s");
    report.metric("setup_s", median(setup), "s");
    return;
  }

  // Traced: replay fleet 0's build layers serially over one shard, then
  // build it again and evaluate it with the week expansions split out.
  const BuildLayers layers = trace_build_shard(config);
  double expand_seconds = 0.0;
  std::unique_ptr<sim::FleetScenario> fleet;
  const double traced_build = timed(
      [&] { fleet = std::make_unique<sim::FleetScenario>(sim::build_fleet_scenario(config)); });
  const double traced_eval = timed([&] { (void)evaluate(*fleet, &expand_seconds); });
  report.metric("trace.overhead_frac", traced_build / median(setup) - 1.0, "ratio");
  report.metric("proc.peak_rss_mib", static_cast<double>(util::peak_rss_kib()) / 1024.0, "MiB");
  report.metric("sim.store_mib", static_cast<double>(fleet->store_bytes()) / (1024.0 * 1024.0),
                "MiB");
  report.metric("stats.pooled_sketch_mib",
                static_cast<double>(fleet->pooled_sketch_bytes()) / (1024.0 * 1024.0), "MiB");

  // The serial shard replay scaled to the whole fleet; the build runs the
  // first three layers on `threads` workers and the pooled fold serially.
  const double build_s = median(setup);
  const double scale = static_cast<double>(config.base.population.user_count) /
                       std::min(config.shard_size, config.base.population.user_count);
  const double threads = util::default_thread_count();
  const std::vector<std::pair<std::string, double>> parts = {
      {"trace.population_ms", layers.population},
      {"trace.render_ms", layers.render},
      {"stats.sketch_ms", layers.sketch},
      {"stats.merge_ms", layers.merge},
  };
  double serial_sum = 0.0;
  std::size_t dominant = 0;
  std::vector<double> wall_share;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    report.metric(parts[i].first, parts[i].second * 1e3, "ms");
    serial_sum += parts[i].second * scale;
    const bool serial_in_build = parts[i].first == "stats.merge_ms";
    wall_share.push_back(parts[i].second * scale / (serial_in_build ? 1.0 : threads) / build_s);
    if (wall_share[i] > wall_share[dominant]) dominant = i;
  }
  report.metric("util.parallel_efficiency", serial_sum / (build_s * threads), "ratio");
  report.note("dominant layer: " + parts[dominant].first + " at an estimated " +
              std::to_string(100.0 * wall_share[dominant]) + "% of fleet build wall time");
  report.metric("dominant_layer_share", wall_share[dominant], "ratio");
  report.metric("sim.expand_ms", expand_seconds * 1e3, "ms");
  report.metric("hids.evaluate_ms", (traced_eval - expand_seconds) * 1e3, "ms");
}

}  // namespace perfbench
