#include "hids/attack_model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "stats/kernels.hpp"
#include "util/error.hpp"

namespace monohids::hids {

double AttackModel::mean_fn(const stats::EmpiricalDistribution& g, double t) const {
  MONOHIDS_EXPECT(!sizes.empty(), "attack model has no sizes");
  if (!g.empty() && sizes.size() >= 8) {
    // One batched rank call for the whole sweep instead of one binary
    // search per size (below 8 sizes the per-size loop at the end is as
    // cheap). The shifted queries t - b are the exact subtractions the
    // per-call path feeds to cdf, and ranks are exact integers, so the
    // size-ordered accumulation below reproduces the seed sum bit-for-bit.
    thread_local std::vector<double> queries;
    thread_local std::vector<std::uint32_t> ranks;
    queries.resize(sizes.size());
    ranks.resize(sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) queries[i] = t - sizes[i];
    if (const auto table = g.rank_table(); !table.empty()) {
      const auto n32 = static_cast<std::uint32_t>(g.size());
      for (std::size_t i = 0; i < queries.size(); ++i) {
        ranks[i] = stats::kernels::rank_from_table(table, n32, queries[i]);
      }
    } else {
      stats::kernels::active().rank_unsorted(g.samples(), queries, 0.0, ranks.data());
    }
    const auto n = static_cast<double>(g.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      acc += static_cast<double>(ranks[i]) / n;
    }
    return acc / static_cast<double>(sizes.size());
  }
  double acc = 0.0;
  for (double b : sizes) acc += g.shifted_cdf(b, t);
  return acc / static_cast<double>(sizes.size());
}

void AttackModel::mean_fn_batch(const stats::EmpiricalDistribution& g,
                                std::span<const double> thresholds,
                                std::span<double> out) const {
  MONOHIDS_EXPECT(!sizes.empty(), "attack model has no sizes");
  MONOHIDS_EXPECT(!g.empty(), "cdf of empty distribution");
  MONOHIDS_EXPECT(thresholds.size() == out.size(), "mean_fn_batch output size mismatch");
  assert(std::is_sorted(thresholds.begin(), thresholds.end()));
  if (thresholds.empty()) return;
  const std::size_t T = thresholds.size();
  const std::size_t S = sizes.size();
  thread_local std::vector<std::uint32_t> ranks;
  ranks.resize(T * S);
  if (const auto table = g.rank_table(); !table.empty()) {
    // Integer-count samples: the whole size x threshold grid is T*S O(1)
    // table loads — no arena pass at all. Same exact ranks as rank_grid.
    const auto n32 = static_cast<std::uint32_t>(g.size());
    for (std::size_t s = 0; s < S; ++s) {
      const double shift = sizes[s];
      std::uint32_t* row = ranks.data() + s * T;
      for (std::size_t j = 0; j < T; ++j) {
        row[j] = stats::kernels::rank_from_table(table, n32, thresholds[j] - shift);
      }
    }
  } else {
    stats::kernels::active().rank_grid(g.samples(), thresholds, sizes, ranks.data());
  }
  const auto n = static_cast<double>(g.size());
  std::fill(out.begin(), out.end(), 0.0);
  // Per-threshold accumulation in size order — the same floating-point
  // operation sequence as the per-call loop, so sums match bit-for-bit.
  for (std::size_t s = 0; s < S; ++s) {
    const std::uint32_t* row = ranks.data() + s * T;
    for (std::size_t j = 0; j < T; ++j) {
      out[j] += static_cast<double>(row[j]) / n;
    }
  }
  const auto count = static_cast<double>(S);
  for (std::size_t j = 0; j < T; ++j) out[j] /= count;
}

AttackModel linear_attack_sweep(double max_size, std::uint32_t steps) {
  MONOHIDS_EXPECT(max_size > 0.0, "sweep needs a positive maximum");
  MONOHIDS_EXPECT(steps >= 2, "sweep needs at least two steps");
  AttackModel model;
  model.sizes.reserve(steps);
  for (std::uint32_t i = 1; i <= steps; ++i) {
    model.sizes.push_back(max_size * static_cast<double>(i) / static_cast<double>(steps));
  }
  return model;
}

AttackModel log_attack_sweep(double min_size, double max_size, std::uint32_t steps) {
  MONOHIDS_EXPECT(min_size > 0.0 && max_size > min_size, "need 0 < min < max");
  MONOHIDS_EXPECT(steps >= 2, "sweep needs at least two steps");
  AttackModel model;
  model.sizes.reserve(steps);
  const double ratio = std::log(max_size / min_size);
  for (std::uint32_t i = 0; i < steps; ++i) {
    const double f = static_cast<double>(i) / static_cast<double>(steps - 1);
    model.sizes.push_back(min_size * std::exp(ratio * f));
  }
  return model;
}

double max_observed_value(std::span<const stats::EmpiricalDistribution> users) {
  double best = 0.0;
  for (const auto& u : users) {
    if (!u.empty()) best = std::max(best, u.max());
  }
  MONOHIDS_EXPECT(best > 0.0, "no user has positive traffic for this feature");
  return best;
}

AttackModel training_attack_sweep(std::span<const stats::EmpiricalDistribution> train,
                                  std::uint32_t steps) {
  return log_attack_sweep(1.0, std::max(2.0, max_observed_value(train)), steps);
}

}  // namespace monohids::hids
