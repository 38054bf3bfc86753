// Batched evaluation kernels with runtime SIMD dispatch.
//
// Every experiment bottoms out in the same scalar inner loop: one binary
// search per EmpiricalDistribution::cdf/exceedance call and one per attack
// size inside AttackModel::mean_fn, issued once per candidate threshold per
// user per feature per round. This layer replaces those per-call searches
// with batched, cache-friendly sweeps:
//
//   - rank_sorted: a single merge-scan over the sorted-sample arena for an
//     ascending query batch — O(n + T) for a whole threshold sweep instead
//     of O(T log n) binary searches.
//   - rank_unsorted: branchless rank queries in arbitrary order (branchless
//     binary search).
//   - rank_grid: the full attack-size x threshold grid of shifted ranks in
//     one tiled pass over the arena (AttackModel::mean_fn_batch).
//   - small arenas (detail::arena_is_small, n <= 96): on the AVX2 back-end
//     all three operations instead answer their whole batch — the grid
//     flattened to S*T queries — with one transposed compare-count kernel:
//     SIMD lanes over the queries, one broadcast per arena sample,
//     !(q < v) masks accumulated per lane. No merge-scan branch and no
//     per-query horizontal sum. This is the fleet path: its rows are
//     24-point quantile grids, and every full-diversity sweep and per-user
//     evaluation ranks against one. Sparse sweeps over large arenas use
//     per-query branchless binary search (detail::sweep_prefers_binary).
//   - count_exceed / replay_detect / joint_exceed: the detector-side
//     bin-vs-threshold loops (alarm counting, storm replay, joint alarms).
//
// Back-ends: portable scalar (the reference), AVX2 and NEON intrinsics.
// One is selected at startup via cpuid-style runtime detection behind a
// function-pointer table; MONOHIDS_SIMD=scalar|avx2|neon overrides the
// choice for testing, and force_backend() does the same in-process.
//
// These kernels are the only production path of every consumer above. The
// per-call seed loops they replaced live on as test oracles
// (tests/oracles/kernels.hpp), which nothing under src/ links.
//
// Bit-identity contract: every kernel computes integer ranks/counts, which
// are exact, and all floating-point post-processing (rank/n divisions,
// accumulation order) happens in shared code in the same order as the seed
// per-call loops. Dispatched results are therefore bit-identical to those
// oracles on every back-end and at any thread count — which keeps
// sim::AnalysisCache memoization keys valid (cached artifacts never depend
// on the back-end that produced them).
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace monohids::stats::kernels {

enum class Backend : std::uint8_t { Scalar = 0, Avx2 = 1, Neon = 2 };

/// Function-pointer table of one back-end. All `arena` arguments are
/// ascending sorted-sample spans (an EmpiricalDistribution's arena); all
/// ranks are upper-bound counts #{v in arena : v <= query}, so cdf(q) is
/// rank / n and the paper's strict alarm condition g > T is 1 - cdf(T).
struct Ops {
  const char* name;

  /// out[j] = #{v in arena : v <= xs[j] - shift}. `xs` must be ascending;
  /// the whole batch is answered with one merge-scan over the arena.
  void (*rank_sorted)(std::span<const double> arena, std::span<const double> xs,
                      double shift, std::uint32_t* out);

  /// Same contract with `xs` in arbitrary order (per-query branchless
  /// binary search or the small-arena kernel; the strategy is a back-end
  /// detail, the integer result is identical). A NaN query ranks n, as
  /// std::upper_bound ranks it: every back-end tests !(q < v).
  void (*rank_unsorted)(std::span<const double> arena, std::span<const double> xs,
                        double shift, std::uint32_t* out);

  /// Full attack-size x threshold grid in one pass over the arena:
  /// ranks[s * thresholds.size() + j] = #{v <= thresholds[j] - sizes[s]}.
  /// `thresholds` must be ascending; `sizes` may be any order.
  void (*rank_grid)(std::span<const double> arena, std::span<const double> thresholds,
                    std::span<const double> sizes, std::uint32_t* ranks);

  /// #{v in values : v > threshold} over an unsorted series (detector alarm
  /// counting, marginal alarm rates).
  std::uint64_t (*count_exceed)(std::span<const double> values, double threshold);

  /// Storm replay's fused bin-vs-threshold loop over parallel benign/attack
  /// series: benign alarms (benign > t), attacked bins (attack > 0) and
  /// detections (attack > 0 and benign + attack > t).
  void (*replay_detect)(std::span<const double> benign, std::span<const double> attack,
                        double threshold, std::uint64_t& benign_alarms,
                        std::uint64_t& attacked_bins, std::uint64_t& detected);

  /// Joint alarm counting across features sharing one bin grid: per-feature
  /// marginal alarm counts plus the count of bins where any feature alarms.
  /// All outputs are overwritten (never accumulated into).
  void (*joint_exceed)(const std::span<const double>* slices, const double* thresholds,
                       std::size_t feature_count, std::size_t bins,
                       std::uint64_t* marginal, std::uint64_t& joint);

  /// out[i] = (double)values[i]: widens an SoA staging buffer of integer
  /// tallies (the batched trace generator's per-bin counts) into a feature
  /// series. Values must be < 2^31 (per-bin traffic tallies always are);
  /// within that range the conversion is exact in every back-end, so the
  /// widened series is bit-identical across Scalar/AVX2/NEON.
  void (*widen_u32)(std::span<const std::uint32_t> values, double* out);

  /// Writes `blocks` consecutive Philox4x32-10 counter blocks (4 uint32
  /// words each) of stream (key, stream) starting at block `first_block`
  /// into `out` — the v2 scenario contract's bulk draw generator
  /// (util::Philox4x32::fill_blocks is the reference). Pure integer
  /// function of its arguments, so every back-end produces identical words
  /// and v2 scenarios are SIMD-invariant by construction.
  void (*philox_fill)(std::uint64_t key, std::uint64_t stream,
                      std::uint64_t first_block, std::uint32_t* out,
                      std::size_t blocks);

  /// Bulk one-word Poisson count resolution — the v2 scenario contract's
  /// fused session-count sweep: counts[i] resolves words[i] against mean
  /// means[i] (exp via stats::batch::exp_neg12 then exact inversion below
  /// the normal cutoff, stats::batch::poisson_normal_word32 above; mean 0
  /// yields 0). Returns the sum of counts. Every floating-point step is
  /// either an exact fused multiply-add or a single IEEE op in fixed
  /// order, so all back-ends produce bit-identical counts (the v2
  /// SIMD-invariance contract).
  std::uint64_t (*poisson_counts)(const double* means, const std::uint32_t* words,
                                  std::uint32_t* counts, std::size_t n);
};

/// The dispatched table: resolved once on first use from runtime CPU
/// detection, or from MONOHIDS_SIMD=scalar|avx2|neon when set. An
/// unavailable requested back-end falls back to the best available one.
[[nodiscard]] const Ops& active() noexcept;
[[nodiscard]] Backend active_backend() noexcept;

/// The table of one specific back-end, or nullptr when it is not available
/// on this host/build (e.g. neon on x86). Scalar is always available.
[[nodiscard]] const Ops* ops_for(Backend backend) noexcept;
[[nodiscard]] bool backend_available(Backend backend) noexcept;

[[nodiscard]] std::string_view backend_name(Backend backend) noexcept;

/// Overrides the dispatched back-end in-process (tests/benches). Returns
/// false (and leaves dispatch untouched) when the back-end is unavailable.
bool force_backend(Backend backend) noexcept;

/// Restores startup dispatch (CPU detection + MONOHIDS_SIMD).
void reset_backend() noexcept;

/// Arena-preparation fast path: sorts `samples` ascending with an O(n + K)
/// counting sweep, K = max(samples), when every value is a non-negative
/// integer (traffic counts almost always are) and detail::counting_pays(K,
/// n) holds. Returns false — leaving `samples` untouched — when the data
/// does not qualify, in which case the caller falls back to comparison
/// sort. The sorted result is bit-identical to std::sort's. Throws
/// std::bad_alloc when the histogram, which grows with n (up to 16 bytes
/// per sample), cannot be allocated.
bool sort_counts(std::vector<double>& samples);

/// Counting-sweep k-way merge of ascending spans into `out` (cleared
/// first): the pooled-distribution analog of sort_counts, under the same
/// qualification (integer counts, detail::counting_pays over the pool's
/// maximum and total size). Returns false with `out` unspecified when the
/// data does not qualify (caller falls back to the heap merge).
bool counting_merge(std::span<const std::span<const double>> parts,
                    std::vector<double>& out);

/// Builds the cumulative rank table of an ascending integer-count arena:
/// cum[k] = #{v in arena : v <= k} for k in [0, max(arena)]. Turns every
/// upper-bound rank query into one O(1) load (see rank_from_table), which
/// collapses the attack-size x threshold rank grids the heuristics sweep.
/// Returns false (cum cleared) when the arena does not qualify — same
/// criterion as sort_counts: integer counts and detail::counting_pays over
/// the arena's maximum and size, so the table holds at most about twice
/// the arena's bytes.
bool build_rank_table(std::span<const double> sorted_arena,
                      std::vector<std::uint32_t>& cum);

/// O(1) upper-bound rank from a build_rank_table table: #{v <= q} for an
/// arena of n samples. Exact for any real query against integer samples
/// (#{v <= q} = #{v <= floor(q)}), so the result is bit-identical to
/// std::upper_bound on the arena itself.
[[nodiscard]] inline std::uint32_t rank_from_table(std::span<const std::uint32_t> cum,
                                                   std::uint32_t n, double q) noexcept {
  if (!(q >= 0.0)) return 0;  // below every count (also rejects NaN)
  if (q >= static_cast<double>(cum.size())) return n;
  return cum[static_cast<std::size_t>(q)];
}

namespace detail {

/// Ascending-sweep strategy crossover shared by the back-ends: a merge-scan
/// touches ~n + t samples, per-query branchless binary search ~t*(log2 n +
/// 1) dependent loads. Binary wins for sparse sweeps over large arenas —
/// e.g. a few hundred candidate thresholds against a 200k-sample pooled
/// arena — while the merge-scan wins on dense per-user sweeps. Both
/// strategies return the same exact integer ranks; this is purely a cost
/// model and never changes results.
[[nodiscard]] constexpr bool sweep_prefers_binary(std::size_t n, std::size_t t) noexcept {
  if (n < 2048) return false;  // small arenas stay cache-resident either way
  const auto log2n = static_cast<std::size_t>(std::bit_width(n));
  return t * (log2n + 1) < n;
}

/// Histogram crossover shared by sort_counts, counting_merge and
/// build_rank_table: a histogram (or cumulative rank table) over [0, max]
/// is built when max <= kCountingFloor or max <= kCountingSlack * n. Its
/// cost is one pass over the n samples plus one over max + 1 bins; a
/// comparison sort or heap merge pays O(n log n) or O(n log k). The floor
/// keeps every input the counting paths always took (traffic counts up to
/// 65535) on them. The slack lets the pooled arenas in, whose maxima grow
/// with the pool: an 8192-host fleet pools 196,608 samples with maxima of
/// 126k-256k on the TCP, TCP-SYN and UDP features. Measured on a 4-core
/// AVX2 VM with log-uniform counts scaled to each max/n (histogram /
/// comparison path; the merges are of ascending 24-sample parts):
///
///     max / n                    1        2        4        8       16       32
///     sort,   n = 672   (us)  2.2/6.0  2.9/6.2  4.0/5.9  7.0/5.9  12/6.1   22/6.0
///     sort,   n = 3360  (us)   18/174   24/176   34/183   59/192   63/170  114/132
///     merge,  16 parts  (us)    2/8      3/8      5/8      7/8     14/8     28/8
///     merge,  8192 parts (ms) 2.2/35   2.9/34   4.2/35   6.5/36   8.3/26   14/26
///
/// The slack only matters above the floor, i.e. for n > 16383, where the
/// histogram still wins at max/n = 32. What caps it is memory: at
/// kCountingSlack = 4 a histogram of 32-bit bins is never larger than
/// twice the 8-byte sample buffer it serves. Data outside the rule (sparse
/// huge maxima, such as one sample at 10^7 among 300) keeps std::sort, the
/// heap merge and per-query rank sweeps. Results never depend on the
/// branch: every path yields the same ascending multiset and exact ranks.
inline constexpr std::uint32_t kCountingFloor = 65535;
inline constexpr std::size_t kCountingSlack = 4;

[[nodiscard]] constexpr bool counting_pays(std::uint32_t max_value, std::size_t n) noexcept {
  return max_value <= kCountingFloor || max_value <= kCountingSlack * n;
}

/// Small-arena crossover of the lane-parallel back-ends: arenas of at most
/// kSmallArenaMax samples take the transposed compare-count kernel in
/// rank_sorted, rank_unsorted and rank_grid. Its cost is n * T / 4 vector
/// compares with no branch on the data; the merge-scan's is n + T steps,
/// each query's exit a likely mispredict. Measured on a 4-core AVX2 VM
/// (2048 distinct lognormal-count arenas per point, T = distinct samples + 1,
/// S = 32; old / new ns per call):
///
///     n    rank_grid       rank_sorted   rank_unsorted (32 queries)
///    24    3459 / 832      139 / 76      150 / 74
///    64    6097 / 3099     286 / 214     470 / 247
///    96    7626 / 4854     322 / 242     412 / 256
///   128    9036 / 7061     366 / 340     521 / 343
///   192   10440 / 11634    507 / 622     762 / 495
///
/// With T = 4 the grid breaks even earlier (n = 128: 1272 / 1207). 96 keeps
/// every measured shape at >= 1.27x and matches the old partition-count
/// bound of rank_unsorted; the paper's 672-sample week arenas, pooled arenas
/// and rank-table arenas (n >= 64 with small integer counts, answered by
/// table loads before any kernel runs) stay on their paths. The scalar
/// back-end keeps its merge-scan and std::upper_bound: without lanes the
/// transposed form measured 2-3x slower than the merge-scan from n = 16 up.
/// NEON keeps its paths too (not built or measured here). Results never
/// depend on the branch: every strategy returns the exact upper-bound ranks.
inline constexpr std::size_t kSmallArenaMax = 96;

[[nodiscard]] constexpr bool arena_is_small(std::size_t n) noexcept {
  return n <= kSmallArenaMax;
}

/// The portable poisson_counts implementation (the scalar back-end's entry
/// and the reference for the SIMD ones; also the fallback the AVX2 kernel
/// funnels normal-regime quads and tails through, so every back-end's rare
/// lanes run literally the same compiled code).
std::uint64_t poisson_counts_portable(const double* means, const std::uint32_t* words,
                                      std::uint32_t* counts, std::size_t n);

/// Per-back-end tables; nullptr when compiled out or unsupported at
/// runtime-detection level (checked by kernels.cpp before exposure).
[[nodiscard]] const Ops* scalar_ops() noexcept;
[[nodiscard]] const Ops* avx2_ops() noexcept;    ///< null unless built with AVX2 support
[[nodiscard]] const Ops* neon_ops() noexcept;    ///< null unless aarch64
[[nodiscard]] bool cpu_supports_avx2() noexcept;
}  // namespace detail

}  // namespace monohids::stats::kernels
