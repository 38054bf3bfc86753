// Production vs oracle identity for every consumer rewired onto the
// stats::kernels layer. Production runs one path per operation (merge
// scans, grid passes, counting sorts, fused alarm loops); the seed per-call
// loops it replaced live in tests/oracles. Bitwise-equal results here are
// the contract that keeps AnalysisCache memoization valid: a cached
// artifact must not depend on which path — or which SIMD back-end —
// produced it. Every check runs once per available back-end, forced
// in-process.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "hids/attack_model.hpp"
#include "hids/attacker.hpp"
#include "hids/detector.hpp"
#include "hids/evaluator.hpp"
#include "hids/heuristics.hpp"
#include "hids/roc.hpp"
#include "hids/threshold_policy.hpp"
#include "oracles/kernels.hpp"
#include "stats/empirical.hpp"
#include "stats/kernels.hpp"
#include "util/rng.hpp"

namespace monohids::hids {
namespace {

namespace kernels = stats::kernels;
using kernels::Backend;
using stats::EmpiricalDistribution;

std::vector<Backend> available_backends() {
  std::vector<Backend> out;
  for (Backend b : {Backend::Scalar, Backend::Avx2, Backend::Neon}) {
    if (kernels::backend_available(b)) out.push_back(b);
  }
  return out;
}

/// Restores startup dispatch however a test exits.
class DispatchGuard {
 public:
  ~DispatchGuard() { kernels::reset_backend(); }
};

/// Count-like traffic samples (small integers, heavy ties) — the regime the
/// counting fast paths trigger on, same as real bin counts.
std::vector<double> count_samples(std::uint64_t seed, std::size_t n) {
  util::Xoshiro256 rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = static_cast<double>(rng() % 60);
  return v;
}

/// Continuous samples — exercises the comparison-sort / heap-merge fallback
/// alongside the batched rank kernels.
std::vector<double> continuous_samples(std::uint64_t seed, std::size_t n) {
  util::Xoshiro256 rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform01() * 80.0;
  return v;
}

/// Runs `oracle` once (the seed per-call path) and `production` once per
/// available back-end, asserting bitwise-equal results.
template <typename Production, typename Oracle>
void expect_matches_oracle(Production&& production, Oracle&& oracle, const char* what) {
  DispatchGuard guard;
  const auto reference = oracle();
  for (Backend b : available_backends()) {
    ASSERT_TRUE(kernels::force_backend(b));
    const auto batched = production();
    EXPECT_EQ(batched, reference) << what << " diverges on " << kernels::backend_name(b);
  }
}

std::vector<double> flatten(const std::vector<RocPoint>& curve) {
  std::vector<double> flat;
  for (const RocPoint& p : curve) {
    flat.push_back(p.threshold);
    flat.push_back(p.fp_rate);
    flat.push_back(p.tp_rate);
  }
  return flat;
}

std::vector<double> flatten(const JointAlarmOutcome& out) {
  std::vector<double> flat{out.joint_fp_rate, out.sum_of_marginals};
  flat.insert(flat.end(), out.per_feature.begin(), out.per_feature.end());
  return flat;
}

TEST(KernelRewire, ArenaSortIsBitIdentical) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    for (const auto& samples : {count_samples(seed, 700), continuous_samples(seed, 700)}) {
      expect_matches_oracle(
          [&] {
            EmpiricalDistribution d(samples);
            return std::vector<double>(d.samples().begin(), d.samples().end());
          },
          [&] { return oracles::sorted_copy(samples); }, "EmpiricalDistribution sort");
    }
  }
}

TEST(KernelRewire, PooledMergeIsBitIdentical) {
  std::vector<EmpiricalDistribution> parts;
  for (std::uint64_t s = 0; s < 6; ++s) parts.emplace_back(count_samples(100 + s, 300));
  std::vector<std::span<const double>> spans;
  for (const auto& p : parts) spans.push_back(p.samples());
  expect_matches_oracle(
      [&] {
        const EmpiricalDistribution pooled = EmpiricalDistribution::merge(parts);
        return std::vector<double>(pooled.samples().begin(), pooled.samples().end());
      },
      [&] { return oracles::merge_sorted(spans); }, "pooled counting merge");
}

TEST(KernelRewire, MeanFnIsBitIdentical) {
  const EmpiricalDistribution g(count_samples(7, 2000));
  const AttackModel attack = linear_attack_sweep(60.0, 64);
  const std::vector<double> thresholds{0.0, 7.0, 13.5, 40.0, 59.0, 61.0};
  expect_matches_oracle(
      [&] {
        std::vector<double> out;
        for (double t : thresholds) out.push_back(attack.mean_fn(g, t));
        return out;
      },
      [&] {
        std::vector<double> out;
        for (double t : thresholds) out.push_back(oracles::mean_fn(attack, g, t));
        return out;
      },
      "AttackModel::mean_fn");
}

TEST(KernelRewire, MeanFnBatchMatchesPerCallSeedPath) {
  const EmpiricalDistribution g(continuous_samples(8, 1500));
  const AttackModel attack = linear_attack_sweep(80.0, 64);
  const auto thresholds = candidate_thresholds(g);
  expect_matches_oracle(
      [&] {
        std::vector<double> batched(thresholds.size());
        attack.mean_fn_batch(g, thresholds, batched);
        return batched;
      },
      [&] {
        std::vector<double> reference;
        reference.reserve(thresholds.size());
        for (double t : thresholds) reference.push_back(oracles::mean_fn(attack, g, t));
        return reference;
      },
      "mean_fn_batch");
}

TEST(KernelRewire, OptimizingHeuristicsPickTheSameThreshold) {
  const EmpiricalDistribution g(count_samples(11, 3000));
  const AttackModel attack = linear_attack_sweep(60.0, 64);
  const FMeasureHeuristic fmeasure;
  const oracles::SeedFMeasureHeuristic seed_fmeasure;
  const UtilityHeuristic utility(0.5);
  const oracles::SeedUtilityHeuristic seed_utility(0.5);
  expect_matches_oracle([&] { return fmeasure.compute(g, &attack); },
                        [&] { return seed_fmeasure.compute(g, &attack); },
                        "FMeasureHeuristic");
  expect_matches_oracle([&] { return utility.compute(g, &attack); },
                        [&] { return seed_utility.compute(g, &attack); },
                        "UtilityHeuristic");
}

TEST(KernelRewire, RocCurveIsBitIdentical) {
  const EmpiricalDistribution g(count_samples(13, 2500));
  const AttackModel attack = linear_attack_sweep(60.0, 32);
  expect_matches_oracle([&] { return flatten(roc_curve(g, attack)); },
                        [&] { return flatten(oracles::roc_curve(g, attack)); }, "roc_curve");
}

TEST(KernelRewire, NaiveDetectionCurveIsBitIdentical) {
  std::vector<EmpiricalDistribution> users;
  std::vector<double> thresholds;
  for (std::uint64_t u = 0; u < 12; ++u) {
    users.emplace_back(count_samples(200 + u, 800));
    thresholds.push_back(users.back().quantile(0.95));
  }
  const AttackModel attack = linear_attack_sweep(60.0, 64);
  expect_matches_oracle(
      [&] { return naive_detection_curve(users, thresholds, attack.sizes, 2); },
      [&] { return oracles::naive_detection_curve(users, thresholds, attack.sizes); },
      "naive_detection_curve");
}

TEST(KernelRewire, ReplayOutcomeIsBitIdentical) {
  util::Xoshiro256 rng(17);
  std::vector<double> benign(4000), attack(4000);
  for (std::size_t i = 0; i < benign.size(); ++i) {
    benign[i] = static_cast<double>(rng() % 40);
    attack[i] = (rng() % 4 == 0) ? static_cast<double>(1 + rng() % 20) : 0.0;
  }
  const auto flat = [](const ReplayOutcome& out) {
    return std::vector<double>{out.fp_rate, out.detection_rate};
  };
  expect_matches_oracle([&] { return flat(evaluate_replay(benign, attack, 30.0)); },
                        [&] { return flat(oracles::evaluate_replay(benign, attack, 30.0)); },
                        "evaluate_replay");
}

TEST(KernelRewire, JointAlarmRateIsBitIdentical) {
  features::FeatureMatrix m;
  util::Xoshiro256 rng(19);
  for (auto& s : m.series) {
    s = features::BinnedSeries(util::BinGrid::minutes(15), util::kMicrosPerWeek);
    for (std::size_t b = 0; b < s.bin_count(); ++b) {
      s.set(b, static_cast<double>(rng() % 25));
    }
  }
  std::array<double, features::kFeatureCount> thresholds{};
  for (auto& t : thresholds) t = static_cast<double>(10 + rng() % 10);
  expect_matches_oracle([&] { return flatten(joint_alarm_rate(m, 0, thresholds)); },
                        [&] { return flatten(oracles::joint_alarm_rate(m, 0, thresholds)); },
                        "joint_alarm_rate");
}

TEST(KernelRewire, DetectorAlarmCountIsBitIdentical) {
  util::Xoshiro256 rng(23);
  std::vector<double> bins(5000);
  for (double& v : bins) v = static_cast<double>(rng() % 50);
  const ThresholdDetector det(37.0);
  expect_matches_oracle([&] { return det.count_alarms(bins); },
                        [&] { return oracles::count_alarms(det, bins); },
                        "ThresholdDetector::count_alarms");
}

TEST(KernelRewire, FullDiversityOnCompactRowsMatchesSeedHeuristic) {
  // Fleet shape: every user's week is a 24-point quantile row of count
  // data (heavy ties), small enough for the small-arena rank kernel, swept
  // against 32 log-spaced attack sizes. Full diversity gives every user
  // their own utility-optimal threshold; the per-user test-week FN rates
  // then go through AttackModel::mean_fn on the same rows.
  constexpr std::size_t kUsers = 48;
  constexpr std::size_t kRow = 24;
  std::vector<EmpiricalDistribution> train, test;
  for (std::uint64_t u = 0; u < kUsers; ++u) {
    for (auto* week : {&train, &test}) {
      auto row = count_samples(400 + 2 * u + (week == &test ? 1 : 0), kRow);
      for (double& v : row) v = std::floor(v * v / (20.0 + static_cast<double>(u)));
      week->emplace_back(row);
    }
  }
  ASSERT_TRUE(train.front().rank_table().empty());
  const AttackModel attack = training_attack_sweep(train, 32);
  const FullDiversityGrouper grouper;
  const auto thresholds_then_fn = [&](const ThresholdHeuristic& heuristic, auto&& mean_fn) {
    const ThresholdAssignment assignment =
        assign_thresholds(train, grouper, heuristic, &attack, 1);
    std::vector<double> out = assignment.threshold_of_user;
    for (std::size_t u = 0; u < kUsers; ++u) {
      out.push_back(mean_fn(test[u], assignment.threshold_of_user[u]));
    }
    return out;
  };
  const UtilityHeuristic utility(0.5);
  const oracles::SeedUtilityHeuristic seed_utility(0.5);
  expect_matches_oracle(
      [&] {
        return thresholds_then_fn(utility, [&](const EmpiricalDistribution& g, double t) {
          return attack.mean_fn(g, t);
        });
      },
      [&] {
        return thresholds_then_fn(seed_utility, [&](const EmpiricalDistribution& g, double t) {
          return oracles::mean_fn(attack, g, t);
        });
      },
      "full-diversity thresholds and FN rates on 24-point rows");
}

// --- Selections made from the input ------------------------------------------
//
// Production still chooses between kernels by looking at its input: sweep
// order in naive_detection_curve, sweep length in AttackModel::mean_fn.
// Every branch must agree with the oracle.

TEST(KernelInputSelection, NaiveDetectionCurveWithNonAscendingSizes) {
  std::vector<EmpiricalDistribution> users;
  std::vector<double> thresholds;
  for (std::uint64_t u = 0; u < 9; ++u) {
    users.emplace_back(u % 2 == 0 ? count_samples(300 + u, 600)
                                  : continuous_samples(300 + u, 600));
    thresholds.push_back(users.back().quantile(0.9));
  }
  std::vector<double> descending = linear_attack_sweep(60.0, 40).sizes;
  std::reverse(descending.begin(), descending.end());
  std::vector<double> shuffled = linear_attack_sweep(60.0, 40).sizes;
  util::Xoshiro256 rng(29);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng() % i]);
  }
  for (const auto& sizes : {descending, shuffled}) {
    ASSERT_FALSE(std::is_sorted(sizes.begin(), sizes.end()));
    expect_matches_oracle(
        [&] { return naive_detection_curve(users, thresholds, sizes, 2); },
        [&] { return oracles::naive_detection_curve(users, thresholds, sizes); },
        "naive_detection_curve (unsorted rank branch)");
  }
}

TEST(KernelInputSelection, MeanFnAtThePerCallBatchedBoundary) {
  // Below 8 sizes mean_fn sums shifted_cdf per size; from 8 up it batches
  // the rank queries (rank table on count data, rank_unsorted otherwise).
  const EmpiricalDistribution counts(count_samples(31, 1200));
  const EmpiricalDistribution continuous(continuous_samples(31, 1200));
  ASSERT_FALSE(counts.rank_table().empty());
  ASSERT_TRUE(continuous.rank_table().empty());
  const std::vector<double> thresholds{-1.0, 0.0, 12.5, 30.0, 59.0, 85.0};
  for (std::uint32_t steps : {7u, 8u}) {
    const AttackModel attack = log_attack_sweep(0.5, 60.0, steps);
    ASSERT_EQ(attack.sizes.size(), steps);
    for (const EmpiricalDistribution* g : {&counts, &continuous}) {
      expect_matches_oracle(
          [&] {
            std::vector<double> out;
            for (double t : thresholds) out.push_back(attack.mean_fn(*g, t));
            return out;
          },
          [&] {
            std::vector<double> out;
            for (double t : thresholds) out.push_back(oracles::mean_fn(attack, *g, t));
            return out;
          },
          steps < 8 ? "mean_fn (per-size loop)" : "mean_fn (batched)");
    }
  }
}

}  // namespace
}  // namespace monohids::hids
