#include "hids/attacker.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "stats/kernels.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace monohids::hids {

double naive_detection_probability(const stats::EmpiricalDistribution& test, double threshold,
                                   double size) {
  MONOHIDS_EXPECT(!test.empty(), "empty test distribution");
  // detection <=> g + size > T <=> NOT (g + size <= T)
  return 1.0 - test.shifted_cdf(size, threshold);
}

std::vector<double> naive_detection_curve(
    std::span<const stats::EmpiricalDistribution> test_users,
    std::span<const double> thresholds, std::span<const double> sizes, unsigned threads) {
  MONOHIDS_EXPECT(test_users.size() == thresholds.size(),
                  "user/threshold count mismatch");
  MONOHIDS_EXPECT(!test_users.empty(), "empty population");
  if (sizes.empty()) return {};
  // One batched rank call per user fills a user x size probability matrix;
  // the reduction over users then runs in user order with the per-call
  // 1 - rank/n values, so the curve is bit-identical to summing
  // naive_detection_probability. An ascending size sweep makes the shifted
  // queries t_u - b descending, so reversing them unlocks the O(n + S)
  // merge-scan; any other order takes the unsorted rank kernel.
  const std::size_t U = test_users.size();
  const std::size_t S = sizes.size();
  std::vector<double> prob(U * S);
  util::parallel_for(
      U,
      [&](std::size_t u) {
        MONOHIDS_EXPECT(!test_users[u].empty(), "empty test distribution");
        thread_local std::vector<double> queries;
        thread_local std::vector<std::uint32_t> ranks;
        queries.resize(S);
        ranks.resize(S);
        for (std::size_t s = 0; s < S; ++s) {
          queries[s] = thresholds[u] - sizes[S - 1 - s];
        }
        const auto& ops = stats::kernels::active();
        const bool ascending = std::is_sorted(queries.begin(), queries.end());
        if (ascending) {
          ops.rank_sorted(test_users[u].samples(), queries, 0.0, ranks.data());
        } else {
          for (std::size_t s = 0; s < S; ++s) queries[s] = thresholds[u] - sizes[s];
          ops.rank_unsorted(test_users[u].samples(), queries, 0.0, ranks.data());
        }
        const auto n = static_cast<double>(test_users[u].size());
        double* row = prob.data() + u * S;
        for (std::size_t s = 0; s < S; ++s) {
          const std::uint32_t rank = ascending ? ranks[S - 1 - s] : ranks[s];
          row[s] = 1.0 - static_cast<double>(rank) / n;
        }
      },
      threads);
  return util::parallel_map(
      S,
      [&](std::size_t s) {
        double acc = 0.0;
        for (std::size_t u = 0; u < U; ++u) acc += prob[u * S + s];
        return acc / static_cast<double>(U);
      },
      threads);
}

double ResourcefulAttacker::hidden_volume(const stats::EmpiricalDistribution& profiled,
                                          double threshold) const {
  MONOHIDS_EXPECT(evasion_target > 0.0 && evasion_target <= 1.0,
                  "evasion target must be in (0,1]");
  return profiled.max_hidden_shift(threshold, evasion_target);
}

std::vector<double> ResourcefulAttacker::hidden_volumes(
    std::span<const stats::EmpiricalDistribution> profiled_users,
    std::span<const double> thresholds, unsigned threads) const {
  MONOHIDS_EXPECT(profiled_users.size() == thresholds.size(),
                  "user/threshold count mismatch");
  return util::parallel_map(
      profiled_users.size(),
      [&](std::size_t u) { return hidden_volume(profiled_users[u], thresholds[u]); },
      threads);
}

double ResourcefulAttacker::realized_evasion(const stats::EmpiricalDistribution& test,
                                             double threshold, double volume) {
  MONOHIDS_EXPECT(!test.empty(), "empty test distribution");
  return test.shifted_cdf(volume, threshold);
}

}  // namespace monohids::hids
