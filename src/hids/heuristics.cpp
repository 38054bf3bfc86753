#include "hids/heuristics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "stats/classification.hpp"
#include "util/error.hpp"

namespace monohids::hids {
namespace {

// Candidate thresholds into a reused buffer; candidate_thresholds() wraps it.
void fill_candidates(const stats::EmpiricalDistribution& training,
                     std::vector<double>& candidates) {
  MONOHIDS_EXPECT(!training.empty(), "cannot derive candidates from empty training data");
  candidates.clear();
  for (double v : training.samples()) {
    if (candidates.empty() || candidates.back() != v) candidates.push_back(v);
  }
  candidates.push_back(training.max() + 1.0);  // "never alarm" endpoint
}

// Shared batched sweep for the FN-aware heuristics: candidate thresholds are
// ascending (distinct training values in order), so one exceedance
// merge-scan plus one rank_grid pass replaces the 2 * |candidates|
// binary-search calls of the per-threshold loop. Both fill-ins are
// bit-identical to the per-call operations, so the selection loops below
// pick the same threshold the seed per-threshold loop picks (tests/oracles
// keeps that loop as SeedUtilityHeuristic and SeedFMeasureHeuristic).
struct SweepRates {
  std::vector<double> thresholds;
  std::vector<double> fp;  ///< fp[j] = training.exceedance(thresholds[j])
  std::vector<double> fn;  ///< fn[j] = attack.mean_fn(training, thresholds[j])
};

// Fills the calling thread's buffers, so a fleet pass of per-host sweeps
// allocates nothing once they have grown. The result is valid until the
// thread's next batched_sweep.
const SweepRates& batched_sweep(const stats::EmpiricalDistribution& training,
                                const AttackModel& attack) {
  thread_local SweepRates rates;
  fill_candidates(training, rates.thresholds);
  rates.fp.resize(rates.thresholds.size());
  rates.fn.resize(rates.thresholds.size());
  training.exceedance_batch(rates.thresholds, rates.fp);
  attack.mean_fn_batch(training, rates.thresholds, rates.fn);
  return rates;
}

}  // namespace
}  // namespace monohids::hids

namespace monohids::hids {

std::vector<double> candidate_thresholds(const stats::EmpiricalDistribution& training) {
  std::vector<double> candidates;
  candidates.reserve(training.size() + 1);
  fill_candidates(training, candidates);
  return candidates;
}

PercentileHeuristic::PercentileHeuristic(double q) : q_(q) {
  MONOHIDS_EXPECT(q > 0.0 && q < 1.0, "percentile must be in (0,1)");
}

double PercentileHeuristic::compute(const stats::EmpiricalDistribution& training,
                                    const AttackModel* /*attack*/) const {
  return training.quantile(q_);
}

std::string PercentileHeuristic::name() const {
  std::ostringstream os;
  os << "percentile-" << q_ * 100.0;
  return os.str();
}

MeanSigmaHeuristic::MeanSigmaHeuristic(double k) : k_(k) {
  MONOHIDS_EXPECT(k >= 0.0, "sigma multiplier must be non-negative");
}

double MeanSigmaHeuristic::compute(const stats::EmpiricalDistribution& training,
                                   const AttackModel* /*attack*/) const {
  return training.mean() + k_ * training.stddev();
}

std::string MeanSigmaHeuristic::name() const {
  std::ostringstream os;
  os << "mean+" << k_ << "sigma";
  return os.str();
}

double FMeasureHeuristic::compute(const stats::EmpiricalDistribution& training,
                                  const AttackModel* attack) const {
  MONOHIDS_EXPECT(attack != nullptr && !attack->sizes.empty(),
                  "F-measure heuristic requires an attack model");
  double best_t = training.max();
  double best_f = -1.0;
  const SweepRates& rates = batched_sweep(training, *attack);
  for (std::size_t j = 0; j < rates.thresholds.size(); ++j) {
    // Precision/recall over the implied labelled set: every benign sample
    // is a negative; every (benign + b) is a positive, uniformly over b.
    const double tp = 1.0 - rates.fn[j];  // per-positive mass detected
    const double fp = rates.fp[j];        // per-negative mass alarmed
    const double prec = (tp + fp) > 0.0 ? tp / (tp + fp) : 0.0;
    const double rec = tp;
    const double f = (prec + rec) > 0.0 ? 2.0 * prec * rec / (prec + rec) : 0.0;
    if (f > best_f) {
      best_f = f;
      best_t = rates.thresholds[j];
    }
  }
  return best_t;
}

std::string FMeasureHeuristic::name() const { return "f-measure"; }

UtilityHeuristic::UtilityHeuristic(double w) : w_(w) {
  MONOHIDS_EXPECT(w >= 0.0 && w <= 1.0, "utility weight must be in [0,1]");
}

double UtilityHeuristic::compute(const stats::EmpiricalDistribution& training,
                                 const AttackModel* attack) const {
  MONOHIDS_EXPECT(attack != nullptr && !attack->sizes.empty(),
                  "utility heuristic requires an attack model");
  double best_t = training.max();
  double best_u = -2.0;
  const SweepRates& rates = batched_sweep(training, *attack);
  for (std::size_t j = 0; j < rates.thresholds.size(); ++j) {
    const double u = stats::utility(rates.fn[j], rates.fp[j], w_);
    if (u > best_u) {
      best_u = u;
      best_t = rates.thresholds[j];
    }
  }
  return best_t;
}

std::string UtilityHeuristic::name() const {
  std::ostringstream os;
  os << "utility-w" << w_;
  return os.str();
}

}  // namespace monohids::hids
