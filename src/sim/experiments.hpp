// Canned experiment runners — one per paper table/figure.
//
// Each function reduces a Scenario to the data series its figure plots, so
// bench binaries only format output and tests can assert on the shape
// claims (who wins, orderings, crossovers) directly. DESIGN.md §4 maps each
// runner to its table/figure.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "hids/collaborative.hpp"
#include "hids/evaluator.hpp"
#include "sim/scenario.hpp"
#include "trace/storm.hpp"

namespace monohids::sim {

/// The paper's three canonical grouping policies, in presentation order:
/// homogeneous, full-diversity, 8-partial.
[[nodiscard]] std::vector<std::unique_ptr<hids::Grouper>> canonical_groupers();

/// The paper's evaluation rounds: train wk1 -> test wk2, train wk3 -> test
/// wk4 (0-indexed weeks 0->1, 2->3). Requires a >= 4-week scenario.
[[nodiscard]] std::vector<hids::EvaluationRound> canonical_rounds();

/// Attack sweep used for FN estimation: hids::training_attack_sweep, a log
/// grid up to the maximum value any user's training traffic reaches on
/// `feature`.
[[nodiscard]] hids::AttackModel make_attack_model(const Scenario& scenario,
                                                  features::FeatureKind feature,
                                                  std::uint32_t train_week,
                                                  std::uint32_t steps = 64);

// ---------------------------------------------------------------- Figure 1
struct TailDiversityResult {
  features::FeatureKind feature;
  std::vector<double> p99_sorted;   ///< per-user 99th percentiles, ascending
  std::vector<double> p999_sorted;  ///< 99.9th, same user order as p99_sorted
  double spread_decades = 0.0;      ///< log10(max p99 / min positive p99)
};
[[nodiscard]] TailDiversityResult tail_diversity(const Scenario& scenario,
                                                 features::FeatureKind feature,
                                                 std::uint32_t week);

// ---------------------------------------------------------------- Figure 2
struct FeatureScatterResult {
  std::vector<double> x;  ///< per-user p99 of feature_x
  std::vector<double> y;  ///< per-user p99 of feature_y
};
[[nodiscard]] FeatureScatterResult feature_scatter(const Scenario& scenario,
                                                   features::FeatureKind feature_x,
                                                   features::FeatureKind feature_y,
                                                   std::uint32_t week);

// ----------------------------------------------------------------- Table 2
struct BestUsersResult {
  std::vector<std::uint32_t> full_diversity;
  std::vector<std::uint32_t> partial_diversity;
};
[[nodiscard]] BestUsersResult best_users_experiment(const Scenario& scenario,
                                                    features::FeatureKind feature,
                                                    std::uint32_t week,
                                                    std::size_t count = 10);

// ------------------------------------------------------------- Figure 3(a)
struct UtilityComparisonResult {
  std::vector<std::string> policy_names;
  std::vector<std::vector<double>> utilities;  ///< per policy, per user
};
[[nodiscard]] UtilityComparisonResult utility_boxplots(const Scenario& scenario,
                                                       features::FeatureKind feature,
                                                       double w);

// ------------------------------------------------------------- Figure 3(b)
struct WeightSweepResult {
  std::vector<double> weights;
  std::vector<std::string> policy_names;
  std::vector<std::vector<double>> mean_utility;  ///< per policy, per weight
};
/// `reoptimize_per_weight` = true re-runs the utility-optimal heuristic for
/// every w (thresholds adapt to the weight); false (default, and the only
/// reading consistent with the paper's diverging curves) keeps the
/// 99th-percentile thresholds fixed and evaluates utility at each w.
[[nodiscard]] WeightSweepResult weight_sweep(const Scenario& scenario,
                                             features::FeatureKind feature,
                                             std::vector<double> weights = {},
                                             bool reoptimize_per_weight = false);

// ----------------------------------------------------------------- Table 3
struct AlarmRateResult {
  std::vector<std::string> heuristic_names;
  std::vector<std::string> policy_names;
  /// alarms[h][p]: mean false alarms per week at the console.
  std::vector<std::vector<double>> alarms;
};
[[nodiscard]] AlarmRateResult alarm_rates(const Scenario& scenario,
                                          features::FeatureKind feature, double utility_w = 0.4);

// ------------------------------------------------------------- Figure 4(a)
struct NaiveAttackResult {
  std::vector<double> sizes;
  std::vector<std::string> policy_names;
  std::vector<std::vector<double>> detection;  ///< per policy, per size
};
[[nodiscard]] NaiveAttackResult naive_attack_curves(const Scenario& scenario,
                                                    features::FeatureKind feature,
                                                    std::uint32_t size_steps = 50);

// ------------------------------------------------------------- Figure 4(b)
struct ResourcefulAttackResult {
  std::vector<std::string> policy_names;
  std::vector<std::vector<double>> hidden_volumes;  ///< per policy, per user
  double evasion_target = 0.9;
};
[[nodiscard]] ResourcefulAttackResult resourceful_attack(const Scenario& scenario,
                                                         features::FeatureKind feature,
                                                         double evasion_target = 0.9);

// ---------------------------------------------------------------- Figure 5
struct StormReplayResult {
  std::vector<std::string> policy_names;
  std::vector<std::vector<hids::ReplayOutcome>> outcomes;  ///< per policy, per user
};
[[nodiscard]] StormReplayResult storm_replay(const Scenario& scenario,
                                             const trace::StormConfig& storm_config = {});

// -------------------------------------------------- §5 grouping ablation
struct GroupingAblationResult {
  std::vector<std::string> grouper_names;
  std::vector<double> mean_utility;      ///< at w = 0.4
  std::vector<double> weekly_alarms;
  std::vector<double> silhouettes;       ///< k-means quality per k (2,3,5,8)
  std::vector<std::uint32_t> silhouette_k;
};
[[nodiscard]] GroupingAblationResult grouping_ablation(const Scenario& scenario,
                                                       features::FeatureKind feature);

// ------------------------------------------------- §6.1 threshold drift
struct ThresholdDriftResult {
  /// Per-user realized FP rate in the test week when targeting the 99th
  /// percentile (1% FP) on the training week, under full diversity.
  std::vector<double> realized_fp;
  double target_fp = 0.01;
  double median_realized_fp = 0.0;
  double fraction_within_2x = 0.0;  ///< users whose realized FP is in [0.5%, 2%]
};
[[nodiscard]] ThresholdDriftResult threshold_drift(const Scenario& scenario,
                                                   features::FeatureKind feature);

// ------------------------------------------- extension: collaboration
[[nodiscard]] hids::CollaborativeCurve collaboration_experiment(
    const Scenario& scenario, features::FeatureKind feature,
    const hids::CollaborativeConfig& config, std::uint32_t size_steps = 40);

}  // namespace monohids::sim
