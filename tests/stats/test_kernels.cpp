// Unit tests for the batched SIMD kernel layer: dispatch-table behavior,
// the tie-handling contract at exact sample values (alarms fire strictly
// above the threshold, so rank queries are upper bounds), degenerate arenas,
// and the counting sort/merge fast paths. Cross-back-end bit-identity over
// randomized inputs lives in test_kernels_differential.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "oracles/kernels.hpp"
#include "stats/empirical.hpp"
#include "stats/kernels.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace monohids::stats {
namespace {

using kernels::Backend;

/// Restores startup dispatch however a test exits.
class DispatchGuard {
 public:
  ~DispatchGuard() { kernels::reset_backend(); }
};

std::vector<Backend> available_backends() {
  std::vector<Backend> out;
  for (Backend b : {Backend::Scalar, Backend::Avx2, Backend::Neon}) {
    if (kernels::backend_available(b)) out.push_back(b);
  }
  return out;
}

TEST(KernelDispatch, ScalarIsAlwaysAvailable) {
  EXPECT_TRUE(kernels::backend_available(Backend::Scalar));
  ASSERT_NE(kernels::ops_for(Backend::Scalar), nullptr);
  EXPECT_STREQ(kernels::ops_for(Backend::Scalar)->name, "scalar");
}

TEST(KernelDispatch, ActiveTableIsOneOfTheAvailableBackends) {
  const kernels::Ops& ops = kernels::active();
  bool found = false;
  for (Backend b : available_backends()) {
    if (&ops == kernels::ops_for(b)) found = true;
  }
  EXPECT_TRUE(found) << "active() returned a table not reachable via ops_for";
  EXPECT_TRUE(kernels::backend_available(kernels::active_backend()));
}

TEST(KernelDispatch, ForceBackendSwitchesAndResetRestores) {
  DispatchGuard guard;
  for (Backend b : available_backends()) {
    ASSERT_TRUE(kernels::force_backend(b)) << kernels::backend_name(b);
    EXPECT_EQ(kernels::active_backend(), b);
    EXPECT_EQ(&kernels::active(), kernels::ops_for(b));
  }
  kernels::reset_backend();
  EXPECT_TRUE(kernels::backend_available(kernels::active_backend()));
}

TEST(KernelDispatch, ForcingUnavailableBackendFailsWithoutSideEffects) {
  DispatchGuard guard;
  const Backend before = kernels::active_backend();
  for (Backend b : {Backend::Avx2, Backend::Neon}) {
    if (kernels::backend_available(b)) continue;
    EXPECT_FALSE(kernels::force_backend(b));
    EXPECT_EQ(kernels::active_backend(), before);
  }
}

TEST(KernelDispatch, BackendNamesMatchTables) {
  EXPECT_EQ(kernels::backend_name(Backend::Scalar), "scalar");
  EXPECT_EQ(kernels::backend_name(Backend::Avx2), "avx2");
  EXPECT_EQ(kernels::backend_name(Backend::Neon), "neon");
  for (Backend b : available_backends()) {
    EXPECT_EQ(std::string(kernels::ops_for(b)->name), kernels::backend_name(b));
  }
}

// --- Tie handling -----------------------------------------------------------
//
// The paper's alarm condition is strict (g > T, detector.hpp), so a rank
// query at an exact sample value must count that value as *not* alarming:
// rank(q) = #{v <= q} includes every tied sample, and exceedance(q) counts
// only strictly greater ones. A duplicated sample pinned exactly on the
// query is the regression case.

TEST(KernelTieHandling, RankAtExactSampleValueCountsAllTies) {
  DispatchGuard guard;
  const std::vector<double> arena{1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 5.0};
  const std::vector<double> queries{0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  const std::vector<std::uint32_t> expected{0, 1, 4, 6, 6, 7, 7};
  for (Backend b : available_backends()) {
    ASSERT_TRUE(kernels::force_backend(b));
    const kernels::Ops& ops = kernels::active();
    std::vector<std::uint32_t> sorted_out(queries.size(), 0xffffffffu);
    std::vector<std::uint32_t> unsorted_out(queries.size(), 0xffffffffu);
    ops.rank_sorted(arena, queries, 0.0, sorted_out.data());
    ops.rank_unsorted(arena, queries, 0.0, unsorted_out.data());
    EXPECT_EQ(sorted_out, expected) << "rank_sorted on " << kernels::backend_name(b);
    EXPECT_EQ(unsorted_out, expected) << "rank_unsorted on " << kernels::backend_name(b);
  }
}

TEST(KernelTieHandling, ExceedanceBatchMatchesStrictAlarmAtThresholdOnSample) {
  const EmpiricalDistribution dist(std::vector<double>{4.0, 7.0, 7.0, 7.0, 9.0});
  // Thresholded exactly on the tied value: only the 9.0 bin alarms.
  std::vector<double> xs{7.0};
  std::vector<double> out{-1.0};
  dist.exceedance_batch(xs, out);
  EXPECT_DOUBLE_EQ(out[0], dist.exceedance(7.0));
  EXPECT_DOUBLE_EQ(out[0], 1.0 / 5.0);
}

TEST(KernelTieHandling, CountExceedIsStrictAtThreshold) {
  DispatchGuard guard;
  const std::vector<double> bins{3.0, 5.0, 5.0, 5.0, 5.5, 8.0};
  for (Backend b : available_backends()) {
    ASSERT_TRUE(kernels::force_backend(b));
    EXPECT_EQ(kernels::active().count_exceed(bins, 5.0), 2u)
        << kernels::backend_name(b);
  }
}

TEST(KernelTieHandling, ReplayDetectIsStrictAtThreshold) {
  DispatchGuard guard;
  // benign + attack lands exactly on the threshold in bin 1: no detection.
  const std::vector<double> benign{6.0, 3.0, 4.0, 5.0};
  const std::vector<double> attack{0.0, 2.0, 3.0, 0.0};
  for (Backend b : available_backends()) {
    ASSERT_TRUE(kernels::force_backend(b));
    std::uint64_t benign_alarms = 99, attacked = 99, detected = 99;
    kernels::active().replay_detect(benign, attack, 5.0, benign_alarms, attacked,
                                    detected);
    EXPECT_EQ(benign_alarms, 1u) << kernels::backend_name(b);  // only 6.0
    EXPECT_EQ(attacked, 2u) << kernels::backend_name(b);
    EXPECT_EQ(detected, 1u) << kernels::backend_name(b);  // 4+3 > 5, not 3+2
  }
}

// --- Degenerate arenas ------------------------------------------------------

TEST(KernelEdgeCases, EmptyArenaRanksAreZero) {
  DispatchGuard guard;
  const std::span<const double> empty;
  const std::vector<double> queries{-1.0, 0.0, 1.0};
  for (Backend b : available_backends()) {
    ASSERT_TRUE(kernels::force_backend(b));
    const kernels::Ops& ops = kernels::active();
    std::vector<std::uint32_t> out(queries.size(), 0xffffffffu);
    ops.rank_sorted(empty, queries, 0.0, out.data());
    EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 0, 0})) << kernels::backend_name(b);
    std::fill(out.begin(), out.end(), 0xffffffffu);
    ops.rank_unsorted(empty, queries, 0.0, out.data());
    EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 0, 0})) << kernels::backend_name(b);
    std::vector<std::uint32_t> grid(queries.size() * 2, 0xffffffffu);
    const std::vector<double> sizes{1.0, 2.0};
    ops.rank_grid(empty, queries, sizes, grid.data());
    EXPECT_EQ(grid, std::vector<std::uint32_t>(6, 0)) << kernels::backend_name(b);
    EXPECT_EQ(ops.count_exceed(empty, 0.0), 0u);
  }
}

TEST(KernelEdgeCases, SingleSampleArena) {
  DispatchGuard guard;
  const std::vector<double> arena{2.0};
  const std::vector<double> queries{1.0, 2.0, 3.0};
  const std::vector<std::uint32_t> expected{0, 1, 1};
  for (Backend b : available_backends()) {
    ASSERT_TRUE(kernels::force_backend(b));
    const kernels::Ops& ops = kernels::active();
    std::vector<std::uint32_t> out(3, 0xffffffffu);
    ops.rank_sorted(arena, queries, 0.0, out.data());
    EXPECT_EQ(out, expected) << kernels::backend_name(b);
    std::fill(out.begin(), out.end(), 0xffffffffu);
    ops.rank_unsorted(arena, queries, 0.0, out.data());
    EXPECT_EQ(out, expected) << kernels::backend_name(b);
  }
}

TEST(KernelEdgeCases, CdfBatchOnEmptyDistributionThrows) {
  const EmpiricalDistribution d;
  std::vector<double> xs{1.0};
  std::vector<double> out(1);
  EXPECT_THROW(d.cdf_batch(xs, out), PreconditionError);
  EXPECT_THROW(d.exceedance_batch(xs, out), PreconditionError);
}

TEST(KernelEdgeCases, RankGridMatchesPerSizeQueries) {
  DispatchGuard guard;
  const std::vector<double> arena{0.0, 1.0, 1.0, 2.0, 4.0, 4.0, 4.0, 7.0, 9.0};
  const std::vector<double> thresholds{0.0, 1.0, 2.0, 4.5, 7.0, 10.0};
  const std::vector<double> sizes{0.5, 1.0, 3.0};
  const std::size_t T = thresholds.size();
  for (Backend b : available_backends()) {
    ASSERT_TRUE(kernels::force_backend(b));
    const kernels::Ops& ops = kernels::active();
    std::vector<std::uint32_t> grid(T * sizes.size(), 0xffffffffu);
    ops.rank_grid(arena, thresholds, sizes, grid.data());
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      std::vector<std::uint32_t> row(T, 0xffffffffu);
      ops.rank_sorted(arena, thresholds, sizes[s], row.data());
      for (std::size_t j = 0; j < T; ++j) {
        EXPECT_EQ(grid[s * T + j], row[j])
            << kernels::backend_name(b) << " size " << sizes[s] << " threshold "
            << thresholds[j];
      }
    }
  }
}

// --- Counting sort / merge fast paths --------------------------------------

TEST(KernelCountingPaths, SortCountsMatchesStdSort) {
  std::vector<double> data;
  for (int i = 0; i < 300; ++i) data.push_back(static_cast<double>((i * 37) % 11));
  std::vector<double> expected = data;
  std::sort(expected.begin(), expected.end());
  ASSERT_TRUE(kernels::sort_counts(data));
  EXPECT_EQ(data, expected);
}

TEST(KernelCountingPaths, SortCountsRejectsNonCountData) {
  const std::vector<double> base(100, 1.0);
  {
    std::vector<double> v = base;
    v[40] = -1.0;
    const std::vector<double> untouched = v;
    EXPECT_FALSE(kernels::sort_counts(v));
    EXPECT_EQ(v, untouched);  // a rejected buffer is left exactly as given
  }
  {
    std::vector<double> v = base;
    v[40] = 2.5;
    EXPECT_FALSE(kernels::sort_counts(v));
  }
  {
    // Above the 65535 floor and sparse: 70000 > 4 * 100 samples.
    std::vector<double> v = base;
    v[40] = 70000.0;
    EXPECT_FALSE(kernels::sort_counts(v));
  }
  {
    std::vector<double> v = base;
    v[40] = -0.0;  // bitwise-distinct from the +0.0 a counting emit produces
    EXPECT_FALSE(kernels::sort_counts(v));
  }
  {
    std::vector<double> tiny(10, 1.0);  // below the crossover, std::sort wins
    EXPECT_FALSE(kernels::sort_counts(tiny));
  }
}

TEST(KernelCountingPaths, CountingMergeMatchesHeapMerge) {
  std::vector<std::vector<double>> parts_storage;
  for (int p = 0; p < 5; ++p) {
    std::vector<double> part;
    for (int i = 0; i < 100; ++i) {
      part.push_back(static_cast<double>((i * (p + 3)) % 23));
    }
    std::sort(part.begin(), part.end());
    parts_storage.push_back(std::move(part));
  }
  std::vector<std::span<const double>> parts(parts_storage.begin(), parts_storage.end());

  std::vector<double> counted;
  ASSERT_TRUE(kernels::counting_merge(parts, counted));
  EXPECT_EQ(counted, oracles::merge_sorted(parts));
}

TEST(KernelCountingPaths, FractionalMergeTakesTheHeapPathAndMatchesOracle) {
  // Fractional samples fail the counting criterion, so merge_sorted_spans
  // copies one part, std::merges two, and heap-merges three or more.
  DispatchGuard guard;
  util::Xoshiro256 rng(37);
  std::vector<std::vector<double>> storage;
  for (int p = 0; p < 5; ++p) {
    std::vector<double> part(150 + 40 * p);
    for (double& v : part) v = static_cast<double>(rng() % 50) + rng.uniform01();
    std::sort(part.begin(), part.end());
    storage.push_back(std::move(part));
  }
  for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
    std::vector<std::span<const double>> parts(storage.begin(), storage.begin() + k);
    std::vector<double> rejected;
    ASSERT_FALSE(kernels::counting_merge(parts, rejected)) << k << " parts";
    const std::vector<double> expected = oracles::merge_sorted(parts);
    for (Backend b : available_backends()) {
      ASSERT_TRUE(kernels::force_backend(b));
      std::vector<double> merged{-1.0};  // stale contents must be cleared
      merge_sorted_spans(parts, merged);
      EXPECT_EQ(merged, expected) << k << " parts on " << kernels::backend_name(b);
    }
  }
}

TEST(KernelCountingPaths, CountingMergeRejectsNonCountData) {
  std::vector<double> a(200, 1.0);
  std::vector<double> b(200, 2.5);  // fractional part
  std::vector<std::span<const double>> parts{a, b};
  std::vector<double> out;
  EXPECT_FALSE(kernels::counting_merge(parts, out));

  std::vector<double> tiny_a{1.0}, tiny_b{2.0};  // below the crossover
  std::vector<std::span<const double>> tiny{tiny_a, tiny_b};
  EXPECT_FALSE(kernels::counting_merge(tiny, out));
}

// The histogram rule (kernels::detail::counting_pays): max <= 65535, or
// max <= 4 n. The second clause matters only for pools above 16383 samples.
static_assert(kernels::detail::counting_pays(65535, 1));
static_assert(!kernels::detail::counting_pays(65536, 16383));
static_assert(kernels::detail::counting_pays(80000, 20000));
static_assert(!kernels::detail::counting_pays(80001, 20000));

/// `parts` ascending parts of `len` heavy-tailed counts, the largest exactly
/// `max_value` (a fleet pool in miniature).
std::vector<std::vector<double>> count_parts(std::size_t parts, std::size_t len,
                                             double max_value, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::vector<double>> out(parts, std::vector<double>(len));
  for (auto& part : out) {
    for (double& v : part) v = std::floor(std::exp(rng.uniform01() * std::log(max_value)));
    std::sort(part.begin(), part.end());
  }
  out[parts / 2].back() = max_value;
  std::sort(out[parts / 2].begin(), out[parts / 2].end());
  return out;
}

TEST(KernelCountingPaths, PoolAboveTheFloorWithinTheSlackIsCounted) {
  // 20,000 samples with maximum 80,000 = 4 n: above the old 65535 ceiling,
  // inside the rule. All three counting paths take it and match their
  // comparison-path oracles exactly.
  const auto storage = count_parts(800, 25, 80000.0, 41);
  const std::vector<std::span<const double>> parts(storage.begin(), storage.end());
  const std::vector<double> expected = oracles::merge_sorted(parts);
  ASSERT_EQ(expected.size(), 20000u);
  ASSERT_EQ(expected.back(), 80000.0);

  std::vector<double> counted;
  ASSERT_TRUE(kernels::counting_merge(parts, counted));
  EXPECT_EQ(counted, expected);

  std::vector<double> flat;
  for (const auto& part : storage) flat.insert(flat.end(), part.rbegin(), part.rend());
  ASSERT_TRUE(kernels::sort_counts(flat));
  EXPECT_EQ(flat, oracles::sorted_copy(flat));
  EXPECT_EQ(flat, expected);

  std::vector<std::uint32_t> cum;
  ASSERT_TRUE(kernels::build_rank_table(expected, cum));
  EXPECT_EQ(cum.size(), 80001u);
  const auto n = static_cast<std::uint32_t>(expected.size());
  for (double q : {-1.0, 0.0, 1.0, 99.5, 1000.0, 65535.0, 65535.5, 79999.0, 80000.0, 1e9}) {
    const auto rank = static_cast<std::uint32_t>(
        std::upper_bound(expected.begin(), expected.end(), q) - expected.begin());
    EXPECT_EQ(kernels::rank_from_table(cum, n, q), rank) << "q=" << q;
  }
  for (std::size_t i = 0; i < expected.size(); i += 97) {
    const double q = expected[i];
    const auto rank = static_cast<std::uint32_t>(
        std::upper_bound(expected.begin(), expected.end(), q) - expected.begin());
    EXPECT_EQ(kernels::rank_from_table(cum, n, q), rank) << "q=" << q;
  }

  // One past the slack: the same pool with max 80,001 is left to the
  // comparison paths.
  auto past = storage;
  past[0].back() = 80001.0;
  const std::vector<std::span<const double>> past_parts(past.begin(), past.end());
  EXPECT_FALSE(kernels::counting_merge(past_parts, counted));
  const std::vector<double> past_pool = oracles::merge_sorted(past_parts);
  EXPECT_FALSE(kernels::build_rank_table(past_pool, cum));
}

TEST(KernelCountingPaths, SparseHugeMaximumTakesTheComparisonPaths) {
  // One sample at 10^7 among 300 counts: a histogram would need 10^7 bins
  // for 300 samples, so every counting path declines, and the heap merge,
  // std::sort and per-query ranks still give the oracle's answers.
  DispatchGuard guard;
  auto storage = count_parts(3, 100, 500.0, 43);
  storage[1].back() = 1e7;
  const std::vector<std::span<const double>> parts(storage.begin(), storage.end());
  const std::vector<double> expected = oracles::merge_sorted(parts);

  std::vector<double> rejected;
  EXPECT_FALSE(kernels::counting_merge(parts, rejected));
  std::vector<double> flat;
  for (const auto& part : storage) flat.insert(flat.end(), part.rbegin(), part.rend());
  const std::vector<double> untouched = flat;
  EXPECT_FALSE(kernels::sort_counts(flat));
  EXPECT_EQ(flat, untouched);
  std::vector<std::uint32_t> cum;
  EXPECT_FALSE(kernels::build_rank_table(expected, cum));
  EXPECT_TRUE(cum.empty());

  const EmpiricalDistribution dist{std::vector<double>(flat)};
  EXPECT_TRUE(std::equal(dist.samples().begin(), dist.samples().end(), expected.begin(),
                         expected.end()));
  EXPECT_TRUE(dist.rank_table().empty());
  const std::vector<double> queries = {-1.0, 0.0, 250.0, 499.5, 1e6, 1e7, 2e7};
  std::vector<double> batched(queries.size());
  for (Backend b : available_backends()) {
    ASSERT_TRUE(kernels::force_backend(b));
    std::vector<double> merged;
    merge_sorted_spans(parts, merged);
    EXPECT_EQ(merged, expected) << kernels::backend_name(b);
    dist.cdf_batch(queries, batched);
    for (std::size_t j = 0; j < queries.size(); ++j) {
      const auto rank = std::upper_bound(expected.begin(), expected.end(), queries[j]) -
                        expected.begin();
      EXPECT_EQ(batched[j], static_cast<double>(rank) / static_cast<double>(expected.size()))
          << kernels::backend_name(b) << " q=" << queries[j];
    }
  }
}

TEST(KernelRankTable, MatchesUpperBoundIncludingTiesAndOutOfRange) {
  std::vector<double> arena;
  for (int i = 0; i < 40; ++i) {
    arena.push_back(0.0);
    arena.push_back(3.0);
    arena.push_back(3.0);
    arena.push_back(static_cast<double>(i % 7));
  }
  std::sort(arena.begin(), arena.end());

  std::vector<std::uint32_t> cum;
  ASSERT_TRUE(kernels::build_rank_table(arena, cum));
  const auto n = static_cast<std::uint32_t>(arena.size());

  const std::vector<double> queries = {-10.0, -0.5,  0.0, 0.5, 2.999, 3.0,
                                       3.5,   6.0,   6.5, 7.0, 1e9};
  for (double q : queries) {
    const auto expected = static_cast<std::uint32_t>(
        std::upper_bound(arena.begin(), arena.end(), q) - arena.begin());
    EXPECT_EQ(kernels::rank_from_table(cum, n, q), expected) << "q=" << q;
  }
  // NaN queries rank below every count (upper_bound on NaN is unspecified,
  // so the table pins the answer instead of comparing against it).
  EXPECT_EQ(kernels::rank_from_table(cum, n, std::numeric_limits<double>::quiet_NaN()),
            0u);
}

TEST(KernelRankTable, RejectsNonCountData) {
  std::vector<std::uint32_t> cum;

  std::vector<double> fractional(100, 1.5);
  EXPECT_FALSE(kernels::build_rank_table(fractional, cum));
  EXPECT_TRUE(cum.empty());

  std::vector<double> negative(100, 2.0);
  negative.front() = -1.0;
  EXPECT_FALSE(kernels::build_rank_table(negative, cum));

  // Above the 65535 floor and sparse: a 70001-entry table for 100 samples.
  std::vector<double> oversized(100, 70000.0);
  EXPECT_FALSE(kernels::build_rank_table(oversized, cum));

  std::vector<double> tiny(16, 1.0);  // below the crossover
  EXPECT_FALSE(kernels::build_rank_table(tiny, cum));

  std::vector<double> negative_zero(100, 0.0);
  negative_zero.front() = -0.0;
  EXPECT_FALSE(kernels::build_rank_table(negative_zero, cum));
}

TEST(KernelRankTable, EmpiricalDistributionBuildsAndUsesTable) {
  std::vector<double> samples;
  for (int i = 0; i < 200; ++i) samples.push_back(static_cast<double>(i % 13));

  const EmpiricalDistribution dist{std::vector<double>(samples)};
  ASSERT_FALSE(dist.rank_table().empty());

  const std::vector<double> queries = {-1.0, 0.0, 4.0, 4.5, 12.0, 13.0};
  std::vector<double> batched(queries.size());
  dist.cdf_batch(queries, batched);
  for (std::size_t j = 0; j < queries.size(); ++j) {
    EXPECT_EQ(batched[j], dist.cdf(queries[j])) << "q=" << queries[j];
  }
}

TEST(KernelWiden, WidenU32IsExactOnEveryBackend) {
  // widen_u32 feeds the batched trace generator's SoA staging buffers into
  // feature series; it must be an exact conversion on every back-end
  // (values < 2^31 always fit the 53-bit mantissa) including awkward tails.
  util::Xoshiro256 rng(7);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
                        std::size_t{17}, std::size_t{1024}, std::size_t{1031}}) {
    std::vector<std::uint32_t> values(n);
    for (auto& v : values) v = static_cast<std::uint32_t>(rng() >> 33);  // < 2^31
    if (n > 2) {
      values[0] = 0;
      values[1] = (1u << 31) - 1;
    }
    for (Backend b : available_backends()) {
      std::vector<double> out(n, -1.0);
      kernels::ops_for(b)->widen_u32(values, out.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], static_cast<double>(values[i]))
            << kernels::backend_name(b) << " i=" << i;
      }
    }
  }
}

TEST(KernelRankTable, ViewBuildsTableOnlyWhenRequested) {
  std::vector<double> sorted(128);
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    sorted[i] = static_cast<double>(i / 4);
  }
  EXPECT_TRUE(EmpiricalDistribution::view_of_sorted(sorted).rank_table().empty());
  const auto view = EmpiricalDistribution::view_of_sorted(sorted, /*with_rank_table=*/true);
  ASSERT_FALSE(view.rank_table().empty());
  EXPECT_EQ(view.rank_table().back(), static_cast<std::uint32_t>(sorted.size()));
}

}  // namespace
}  // namespace monohids::stats
