// Seed implementations of every operation rewired onto stats::kernels.
//
// Production code has one path per operation: the batched kernels (merge
// scans, rank grids, counting sorts, fused alarm loops). The per-call loops
// they replaced live here, written only against public APIs, as the oracle
// the differential tests and the micro_kernels A side compare against.
// Every function returns exactly what the batched path must return — the
// kernels' bit-identity contract (stats/kernels.hpp) says so, and these are
// the plain statements of it. Part of the monohids_oracles library, which
// nothing under src/ links.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "features/time_series.hpp"
#include "hids/attack_model.hpp"
#include "hids/detector.hpp"
#include "hids/evaluator.hpp"
#include "hids/heuristics.hpp"
#include "hids/roc.hpp"
#include "stats/empirical.hpp"

namespace monohids::oracles {

/// Ascending copy of `samples` by comparison sort: the arena an
/// EmpiricalDistribution built from `samples` must hold.
[[nodiscard]] std::vector<double> sorted_copy(std::vector<double> samples);

/// Ascending multiset union of ascending `parts`, by stable-sorting their
/// concatenation: what stats::merge_sorted_spans must produce.
[[nodiscard]] std::vector<double> merge_sorted(
    std::span<const std::span<const double>> parts);

/// Mean over the attack sizes of P(g + b <= t), one shifted_cdf binary
/// search per size, accumulated in size order (AttackModel::mean_fn).
[[nodiscard]] double mean_fn(const hids::AttackModel& attack,
                             const stats::EmpiricalDistribution& g, double t);

/// One (threshold, FP, TP) point per candidate threshold, descending, each
/// from per-call exceedance and mean_fn (hids::roc_curve).
[[nodiscard]] std::vector<hids::RocPoint> roc_curve(const stats::EmpiricalDistribution& benign,
                                                    const hids::AttackModel& attack);

/// For each size, the mean over users of naive_detection_probability, users
/// summed in order (hids::naive_detection_curve).
[[nodiscard]] std::vector<double> naive_detection_curve(
    std::span<const stats::EmpiricalDistribution> test_users,
    std::span<const double> thresholds, std::span<const double> sizes);

/// Bins for which detector.alarms(v) holds (ThresholdDetector::count_alarms).
[[nodiscard]] std::uint64_t count_alarms(const hids::ThresholdDetector& detector,
                                         std::span<const double> bins);

/// Bin-by-bin replay of an attack over benign test bins (hids::evaluate_replay).
[[nodiscard]] hids::ReplayOutcome evaluate_replay(std::span<const double> benign_test_bins,
                                                  std::span<const double> attack_bins,
                                                  double threshold);

/// Bin-by-bin joint and marginal alarm counts (hids::joint_alarm_rate).
[[nodiscard]] hids::JointAlarmOutcome joint_alarm_rate(
    const features::FeatureMatrix& matrix, std::uint32_t week,
    const std::array<double, features::kFeatureCount>& thresholds);

/// hids::UtilityHeuristic as one exceedance and one oracle mean_fn per
/// candidate threshold. Same name as the production heuristic (it picks
/// the same threshold); its cache_key differs, so a shared
/// sim::AnalysisCache never hands one heuristic's assignment to the other.
class SeedUtilityHeuristic final : public hids::ThresholdHeuristic {
 public:
  explicit SeedUtilityHeuristic(double w);
  [[nodiscard]] double compute(const stats::EmpiricalDistribution& training,
                               const hids::AttackModel* attack) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string cache_key() const override;

 private:
  double w_;
};

/// hids::FMeasureHeuristic as one exceedance and one oracle mean_fn per
/// candidate threshold (cache_key distinct, as above).
class SeedFMeasureHeuristic final : public hids::ThresholdHeuristic {
 public:
  [[nodiscard]] double compute(const stats::EmpiricalDistribution& training,
                               const hids::AttackModel* attack) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string cache_key() const override;
};

}  // namespace monohids::oracles
