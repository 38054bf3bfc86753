// NEON back-end (aarch64). Mirrors the AVX2 back-end with 2-lane float64
// vectors; NEON is baseline on aarch64 so no runtime feature check is
// needed beyond the architecture itself. Same exactness argument as AVX2:
// integer ranks/counts only, no reassociated floating-point reductions.
#include "stats/kernels.hpp"
#include "util/rng.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>
#include <cstdint>
#include <span>

namespace monohids::stats::kernels {
namespace {

/// Advances `i` over ascending a[i..limit) while a[i] <= q, two lanes at a
/// time (mask lanes are all-ones/all-zero runs because the arena ascends).
inline std::size_t advance_le(const double* a, std::size_t i, std::size_t limit,
                              double q) noexcept {
  const float64x2_t qv = vdupq_n_f64(q);
  while (i + 2 <= limit) {
    const float64x2_t v = vld1q_f64(a + i);
    const uint64x2_t le = vcleq_f64(v, qv);
    const std::uint64_t lo = vgetq_lane_u64(le, 0);
    const std::uint64_t hi = vgetq_lane_u64(le, 1);
    if (lo != 0 && hi != 0) {
      i += 2;
      continue;
    }
    return i + (lo != 0 ? 1 : 0);  // ascending: hi set without lo cannot happen
  }
  while (i < limit && a[i] <= q) ++i;
  return i;
}

/// Tests !(q < v), std::upper_bound's own comparison, so a NaN query ranks
/// n exactly as std::upper_bound does.
inline std::uint32_t upper_bound_branchless(const double* a, std::size_t n,
                                            double q) noexcept {
  if (n == 0) return 0;
  const double* base = a;
  while (n > 1) {
    const std::size_t half = n / 2;
    base += !(q < base[half - 1]) ? half : 0;
    n -= half;
  }
  return static_cast<std::uint32_t>((base - a) + (!(q < *base) ? 1 : 0));
}

void rank_sorted_neon(std::span<const double> arena, std::span<const double> xs,
                      double shift, std::uint32_t* out) {
  const double* a = arena.data();
  const std::size_t n = arena.size();
  if (detail::sweep_prefers_binary(n, xs.size())) {
    for (std::size_t j = 0; j < xs.size(); ++j) {
      out[j] = upper_bound_branchless(a, n, xs[j] - shift);
    }
    return;
  }
  std::size_t i = 0;
  for (std::size_t j = 0; j < xs.size(); ++j) {
    i = advance_le(a, i, n, xs[j] - shift);
    out[j] = static_cast<std::uint32_t>(i);
  }
}

/// Streaming partition count: n - #{v > q}, i.e. #{!(q < v)} (a NaN query
/// ranks n, as std::upper_bound ranks it). Lanes of vcgtq are all-ones
/// (=-1 as int64), so subtracting the mask accumulates the count.
inline std::uint32_t partition_count_le(const double* a, std::size_t n,
                                        double q) noexcept {
  const float64x2_t qv = vdupq_n_f64(q);
  int64x2_t acc = vdupq_n_s64(0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t v = vld1q_f64(a + i);
    acc = vsubq_s64(acc, vreinterpretq_s64_u64(vcgtq_f64(v, qv)));
  }
  std::int64_t above = vgetq_lane_s64(acc, 0) + vgetq_lane_s64(acc, 1);
  for (; i < n; ++i) above += a[i] > q ? 1 : 0;
  return static_cast<std::uint32_t>(static_cast<std::int64_t>(n) - above);
}

void rank_unsorted_neon(std::span<const double> arena, std::span<const double> xs,
                        double shift, std::uint32_t* out) {
  const double* a = arena.data();
  const std::size_t n = arena.size();
  // Tiny arenas only: past ~2 cache lines per lane the n/2 streaming
  // compares lose to ~log2(n) dependent loads.
  constexpr std::size_t kPartitionCountMax = 96;
  if (n <= kPartitionCountMax) {
    for (std::size_t j = 0; j < xs.size(); ++j) {
      out[j] = partition_count_le(a, n, xs[j] - shift);
    }
  } else {
    for (std::size_t j = 0; j < xs.size(); ++j) {
      out[j] = upper_bound_branchless(a, n, xs[j] - shift);
    }
  }
}

void rank_grid_neon(std::span<const double> arena, std::span<const double> thresholds,
                    std::span<const double> sizes, std::uint32_t* ranks) {
  const std::size_t n = arena.size();
  const std::size_t T = thresholds.size();
  const std::size_t S = sizes.size();
  if (T == 0 || S == 0) return;
  if (n == 0) {
    std::fill(ranks, ranks + T * S, 0u);
    return;
  }
  const double* a = arena.data();
  if (detail::sweep_prefers_binary(n, T)) {
    // Sparse grid over a large (pooled) arena: S*T binary searches touch
    // far fewer samples than S merge-scans of the whole arena.
    for (std::size_t s = 0; s < S; ++s) {
      const double shift = sizes[s];
      std::uint32_t* row = ranks + s * T;
      for (std::size_t j = 0; j < T; ++j) {
        row[j] = upper_bound_branchless(a, n, thresholds[j] - shift);
      }
    }
    return;
  }
  constexpr std::size_t kTile = 4096;  // 32 KiB of samples per tile
  thread_local std::vector<std::size_t> arena_cursor, query_cursor;
  arena_cursor.assign(S, 0);
  query_cursor.assign(S, 0);
  for (std::size_t lo = 0; lo < n; lo += kTile) {
    const std::size_t hi = std::min(n, lo + kTile);
    const bool last_tile = hi == n;
    for (std::size_t s = 0; s < S; ++s) {
      std::size_t j = query_cursor[s];
      if (j >= T) continue;
      std::size_t i = arena_cursor[s];
      const double shift = sizes[s];
      std::uint32_t* row = ranks + s * T;
      while (j < T) {
        i = advance_le(a, i, hi, thresholds[j] - shift);
        if (i == hi && !last_tile) break;
        row[j] = static_cast<std::uint32_t>(i);
        ++j;
      }
      arena_cursor[s] = i;
      query_cursor[s] = j;
    }
  }
}

std::uint64_t count_exceed_neon(std::span<const double> values, double threshold) {
  const double* a = values.data();
  const std::size_t n = values.size();
  const float64x2_t tv = vdupq_n_f64(threshold);
  int64x2_t acc = vdupq_n_s64(0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t v = vld1q_f64(a + i);
    acc = vsubq_s64(acc, vreinterpretq_s64_u64(vcgtq_f64(v, tv)));
  }
  std::uint64_t count =
      static_cast<std::uint64_t>(vgetq_lane_s64(acc, 0) + vgetq_lane_s64(acc, 1));
  for (; i < n; ++i) count += a[i] > threshold ? 1 : 0;
  return count;
}

void replay_detect_neon(std::span<const double> benign, std::span<const double> attack,
                        double threshold, std::uint64_t& benign_alarms,
                        std::uint64_t& attacked_bins, std::uint64_t& detected) {
  const double* b = benign.data();
  const double* at = attack.data();
  const std::size_t n = benign.size();
  const float64x2_t tv = vdupq_n_f64(threshold);
  const float64x2_t zero = vdupq_n_f64(0.0);
  int64x2_t acc_alarm = vdupq_n_s64(0);
  int64x2_t acc_attacked = vdupq_n_s64(0);
  int64x2_t acc_hit = vdupq_n_s64(0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t bv = vld1q_f64(b + i);
    const float64x2_t av = vld1q_f64(at + i);
    const uint64x2_t m_alarm = vcgtq_f64(bv, tv);
    const uint64x2_t m_attacked = vcgtq_f64(av, zero);
    const uint64x2_t m_hit = vandq_u64(vcgtq_f64(vaddq_f64(bv, av), tv), m_attacked);
    acc_alarm = vsubq_s64(acc_alarm, vreinterpretq_s64_u64(m_alarm));
    acc_attacked = vsubq_s64(acc_attacked, vreinterpretq_s64_u64(m_attacked));
    acc_hit = vsubq_s64(acc_hit, vreinterpretq_s64_u64(m_hit));
  }
  const auto reduce = [](int64x2_t acc) {
    return static_cast<std::uint64_t>(vgetq_lane_s64(acc, 0) + vgetq_lane_s64(acc, 1));
  };
  std::uint64_t alarms = reduce(acc_alarm);
  std::uint64_t attacked = reduce(acc_attacked);
  std::uint64_t hits = reduce(acc_hit);
  for (; i < n; ++i) {
    if (b[i] > threshold) ++alarms;
    if (at[i] > 0.0) {
      ++attacked;
      if (b[i] + at[i] > threshold) ++hits;
    }
  }
  benign_alarms = alarms;
  attacked_bins = attacked;
  detected = hits;
}

void joint_exceed_neon(const std::span<const double>* slices, const double* thresholds,
                       std::size_t feature_count, std::size_t bins,
                       std::uint64_t* marginal, std::uint64_t& joint) {
  for (std::size_t f = 0; f < feature_count; ++f) marginal[f] = 0;
  std::uint64_t any_count = 0;
  std::size_t b = 0;
  for (; b + 2 <= bins; b += 2) {
    uint64x2_t any = vdupq_n_u64(0);
    for (std::size_t f = 0; f < feature_count; ++f) {
      const float64x2_t v = vld1q_f64(slices[f].data() + b);
      const uint64x2_t m = vcgtq_f64(v, vdupq_n_f64(thresholds[f]));
      marginal[f] += (vgetq_lane_u64(m, 0) != 0 ? 1u : 0u) +
                     (vgetq_lane_u64(m, 1) != 0 ? 1u : 0u);
      any = vorrq_u64(any, m);
    }
    any_count += (vgetq_lane_u64(any, 0) != 0 ? 1u : 0u) +
                 (vgetq_lane_u64(any, 1) != 0 ? 1u : 0u);
  }
  for (; b < bins; ++b) {
    bool any = false;
    for (std::size_t f = 0; f < feature_count; ++f) {
      if (slices[f][b] > thresholds[f]) {
        ++marginal[f];
        any = true;
      }
    }
    if (any) ++any_count;
  }
  joint = any_count;
}

void widen_u32_neon(std::span<const std::uint32_t> values, double* out) {
  // u32 -> u64 widen, then the exact u64 -> f64 convert (every u32 fits the
  // 53-bit mantissa, so no rounding in either step).
  const std::uint32_t* v = values.data();
  const std::size_t n = values.size();
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint32x2_t narrow = vld1_u32(v + i);
    vst1q_f64(out + i, vcvtq_f64_u64(vmovl_u32(narrow)));
  }
  for (; i < n; ++i) out[i] = static_cast<double>(v[i]);
}

void philox_fill_neon(std::uint64_t key, std::uint64_t stream,
                      std::uint64_t first_block, std::uint32_t* out,
                      std::size_t blocks) {
  // NEON has no 4-wide 32x32 -> 64 multiply analog of _mm256_mul_epu32 that
  // beats the interleaved scalar schedule here; the portable bulk form
  // already keeps four blocks in flight.
  util::Philox4x32::fill_blocks(key, stream, first_block, out, blocks);
}

}  // namespace

namespace detail {

const Ops* neon_ops() noexcept {
  static const Ops ops = {
      "neon",            rank_sorted_neon,  rank_unsorted_neon, rank_grid_neon,
      count_exceed_neon, replay_detect_neon, joint_exceed_neon, widen_u32_neon,
      philox_fill_neon,  poisson_counts_portable,
  };
  return &ops;
}

}  // namespace detail
}  // namespace monohids::stats::kernels

#else  // not aarch64

namespace monohids::stats::kernels::detail {
const Ops* neon_ops() noexcept { return nullptr; }
}  // namespace monohids::stats::kernels::detail

#endif
