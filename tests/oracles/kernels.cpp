#include "oracles/kernels.hpp"

#include <algorithm>
#include <functional>

#include "hids/attacker.hpp"
#include "stats/classification.hpp"
#include "util/error.hpp"

namespace monohids::oracles {

std::vector<double> sorted_copy(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples;
}

std::vector<double> merge_sorted(std::span<const std::span<const double>> parts) {
  std::vector<double> out;
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  std::stable_sort(out.begin(), out.end());
  return out;
}

double mean_fn(const hids::AttackModel& attack, const stats::EmpiricalDistribution& g,
               double t) {
  MONOHIDS_EXPECT(!attack.sizes.empty(), "attack model has no sizes");
  double acc = 0.0;
  for (double b : attack.sizes) acc += g.shifted_cdf(b, t);
  return acc / static_cast<double>(attack.sizes.size());
}

std::vector<hids::RocPoint> roc_curve(const stats::EmpiricalDistribution& benign,
                                      const hids::AttackModel& attack) {
  auto thresholds = hids::candidate_thresholds(benign);
  std::sort(thresholds.begin(), thresholds.end(), std::greater<>());
  std::vector<hids::RocPoint> curve;
  curve.reserve(thresholds.size());
  for (double t : thresholds) {
    hids::RocPoint p;
    p.threshold = t;
    p.fp_rate = benign.exceedance(t);
    p.tp_rate = 1.0 - mean_fn(attack, benign, t);
    curve.push_back(p);
  }
  return curve;
}

std::vector<double> naive_detection_curve(
    std::span<const stats::EmpiricalDistribution> test_users,
    std::span<const double> thresholds, std::span<const double> sizes) {
  MONOHIDS_EXPECT(test_users.size() == thresholds.size(), "user/threshold count mismatch");
  MONOHIDS_EXPECT(!test_users.empty(), "empty population");
  std::vector<double> curve;
  curve.reserve(sizes.size());
  for (double size : sizes) {
    double acc = 0.0;
    for (std::size_t u = 0; u < test_users.size(); ++u) {
      acc += hids::naive_detection_probability(test_users[u], thresholds[u], size);
    }
    curve.push_back(acc / static_cast<double>(test_users.size()));
  }
  return curve;
}

std::uint64_t count_alarms(const hids::ThresholdDetector& detector,
                           std::span<const double> bins) {
  std::uint64_t count = 0;
  for (double v : bins) {
    if (detector.alarms(v)) ++count;
  }
  return count;
}

hids::ReplayOutcome evaluate_replay(std::span<const double> benign_test_bins,
                                    std::span<const double> attack_bins, double threshold) {
  MONOHIDS_EXPECT(benign_test_bins.size() == attack_bins.size(),
                  "benign/attack bin count mismatch");
  MONOHIDS_EXPECT(!benign_test_bins.empty(), "empty test window");
  std::uint64_t benign_alarms = 0;
  std::uint64_t attacked_bins = 0;
  std::uint64_t detected = 0;
  for (std::size_t i = 0; i < benign_test_bins.size(); ++i) {
    if (benign_test_bins[i] > threshold) ++benign_alarms;
    if (attack_bins[i] > 0.0) {
      ++attacked_bins;
      if (benign_test_bins[i] + attack_bins[i] > threshold) ++detected;
    }
  }
  hids::ReplayOutcome out;
  out.fp_rate =
      static_cast<double>(benign_alarms) / static_cast<double>(benign_test_bins.size());
  out.detection_rate = attacked_bins == 0 ? 0.0
                                          : static_cast<double>(detected) /
                                                static_cast<double>(attacked_bins);
  return out;
}

hids::JointAlarmOutcome joint_alarm_rate(
    const features::FeatureMatrix& matrix, std::uint32_t week,
    const std::array<double, features::kFeatureCount>& thresholds) {
  std::array<std::span<const double>, features::kFeatureCount> slices;
  for (features::FeatureKind f : features::kAllFeatures) {
    slices[features::index_of(f)] = matrix.of(f).week_slice(week);
  }
  const std::size_t bins = slices.front().size();
  MONOHIDS_EXPECT(bins > 0, "week outside the matrix horizon");

  std::uint64_t joint = 0;
  std::array<std::uint64_t, features::kFeatureCount> marginal{};
  for (std::size_t b = 0; b < bins; ++b) {
    bool any = false;
    for (std::size_t i = 0; i < features::kFeatureCount; ++i) {
      if (slices[i][b] > thresholds[i]) {
        ++marginal[i];
        any = true;
      }
    }
    if (any) ++joint;
  }
  hids::JointAlarmOutcome outcome;
  outcome.joint_fp_rate = static_cast<double>(joint) / static_cast<double>(bins);
  for (std::size_t i = 0; i < features::kFeatureCount; ++i) {
    outcome.per_feature[i] = static_cast<double>(marginal[i]) / static_cast<double>(bins);
    outcome.sum_of_marginals += outcome.per_feature[i];
  }
  return outcome;
}

SeedUtilityHeuristic::SeedUtilityHeuristic(double w) : w_(w) {
  MONOHIDS_EXPECT(w >= 0.0 && w <= 1.0, "utility weight must be in [0,1]");
}

double SeedUtilityHeuristic::compute(const stats::EmpiricalDistribution& training,
                                     const hids::AttackModel* attack) const {
  MONOHIDS_EXPECT(attack != nullptr && !attack->sizes.empty(),
                  "utility heuristic requires an attack model");
  double best_t = training.max();
  double best_u = -2.0;
  for (double t : hids::candidate_thresholds(training)) {
    const double u = stats::utility(mean_fn(*attack, training, t), training.exceedance(t), w_);
    if (u > best_u) {
      best_u = u;
      best_t = t;
    }
  }
  return best_t;
}

std::string SeedUtilityHeuristic::name() const { return hids::UtilityHeuristic(w_).name(); }

std::string SeedUtilityHeuristic::cache_key() const { return "seed-" + name(); }

double SeedFMeasureHeuristic::compute(const stats::EmpiricalDistribution& training,
                                      const hids::AttackModel* attack) const {
  MONOHIDS_EXPECT(attack != nullptr && !attack->sizes.empty(),
                  "F-measure heuristic requires an attack model");
  double best_t = training.max();
  double best_f = -1.0;
  for (double t : hids::candidate_thresholds(training)) {
    // Every benign sample is a negative; every (benign + b) is a positive,
    // uniformly over the attack sizes b.
    const double tp = 1.0 - mean_fn(*attack, training, t);
    const double fp = training.exceedance(t);
    const double prec = (tp + fp) > 0.0 ? tp / (tp + fp) : 0.0;
    const double rec = tp;
    const double f = (prec + rec) > 0.0 ? 2.0 * prec * rec / (prec + rec) : 0.0;
    if (f > best_f) {
      best_f = f;
      best_t = t;
    }
  }
  return best_t;
}

std::string SeedFMeasureHeuristic::name() const { return hids::FMeasureHeuristic().name(); }

std::string SeedFMeasureHeuristic::cache_key() const { return "seed-" + name(); }

}  // namespace monohids::oracles
