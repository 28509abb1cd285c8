// NEON tier: 2 double lanes per vector register, lane-per-object batching
// (docs/simd_kernels.md). NEON is baseline on AArch64, so the tier is
// available exactly when this TU compiles its implementation. Compiled with
// -ffp-contract=off; same bit-identity rules as the x86 tiers: vectorise
// across the batch, sequential per-lane accumulation, vabsq abs (sign-bit
// clear), compare+select L∞ (never vmaxq, whose NaN semantics differ from
// the scalar `if (diff > best)`), no FMA.

#include "metric/kernels/kernels.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cmath>

namespace mvp::metric::kernels {
namespace {

template <Family kFam>
inline float64x2_t Accumulate(float64x2_t acc, float64x2_t diff) {
  if constexpr (kFam == Family::kL1) {
    return vaddq_f64(acc, vabsq_f64(diff));
  } else if constexpr (kFam == Family::kL2) {
    return vaddq_f64(acc, vmulq_f64(diff, diff));
  } else {
    const float64x2_t cur = vabsq_f64(diff);
    const uint64x2_t gt = vcgtq_f64(cur, acc);
    return vbslq_f64(gt, cur, acc);
  }
}

template <Family kFam>
inline float64x2_t Finish(float64x2_t acc) {
  if constexpr (kFam == Family::kL2) {
    return vsqrtq_f64(acc);
  } else {
    return acc;
  }
}

// Two rows (lane-per-row) against one broadcast query, subtracting
// query - row as the scalar reference does.
template <Family kFam>
inline void Distance2(const double* query, const double* const rows[2],
                      std::size_t dim, double* out2) {
  float64x2_t acc = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= dim; i += 2) {
    const float64x2_t a = vld1q_f64(rows[0] + i);
    const float64x2_t b = vld1q_f64(rows[1] + i);
    const float64x2_t col0 = vzip1q_f64(a, b);
    const float64x2_t col1 = vzip2q_f64(a, b);
    const float64x2_t qv0 = vdupq_n_f64(query[i]);
    const float64x2_t qv1 = vdupq_n_f64(query[i + 1]);
    acc = Accumulate<kFam>(acc, vsubq_f64(qv0, col0));
    acc = Accumulate<kFam>(acc, vsubq_f64(qv1, col1));
  }
  for (; i < dim; ++i) {
    float64x2_t col = vdupq_n_f64(rows[0][i]);
    col = vsetq_lane_f64(rows[1][i], col, 1);
    const float64x2_t qv = vdupq_n_f64(query[i]);
    acc = Accumulate<kFam>(acc, vsubq_f64(qv, col));
  }
  vst1q_f64(out2, Finish<kFam>(acc));
}

template <Family kFam>
void NeonOneToMany(const double* query, const double* objects,
                   std::size_t count, std::size_t stride, std::size_t dim,
                   double* out) {
  std::size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const double* rows[2] = {objects + (i + 0) * stride,
                             objects + (i + 1) * stride};
    Distance2<kFam>(query, rows, dim, out + i);
  }
  for (; i < count; ++i) {
    out[i] = PairDistance(kFam, query, objects + i * stride, dim);
  }
}

// An odd last row runs as one more Distance2 whose second lane repeats it,
// so it reads only rows the caller named.
template <Family kFam>
void NeonOneToRows(const double* query, const double* const* rows,
                   std::size_t count, std::size_t dim, double* out) {
  std::size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    Distance2<kFam>(query, rows + i, dim, out + i);
  }
  if (i < count) {
    const double* tail[2] = {rows[i], rows[i]};
    double vals[2];
    Distance2<kFam>(query, tail, dim, vals);
    out[i] = vals[0];
  }
}

// Column by column, two entries per compare, and a scalar tail.
std::uint64_t NeonAnnulusMask(const double* centers,
                              const double* const* columns,
                              std::size_t num_columns, std::size_t count,
                              double radius) {
  const float64x2_t r = vdupq_n_f64(radius);
  std::uint64_t mask = internal::LowBits(count);
  for (std::size_t c = 0; c < num_columns; ++c) {
    const float64x2_t center = vdupq_n_f64(centers[c]);
    const double* values = columns[c];
    std::uint64_t bits = 0;
    std::size_t i = 0;
    for (; i + 2 <= count; i += 2) {
      const float64x2_t diff =
          vabsq_f64(vsubq_f64(center, vld1q_f64(values + i)));
      const uint64x2_t le = vcleq_f64(diff, r);
      bits |= (vgetq_lane_u64(le, 0) & 1) << i;
      bits |= (vgetq_lane_u64(le, 1) & 1) << (i + 1);
    }
    for (; i < count; ++i) {
      if (std::fabs(centers[c] - values[i]) <= radius) {
        bits |= std::uint64_t{1} << i;
      }
    }
    mask &= bits;
  }
  return mask;
}

}  // namespace

namespace internal {

const Ops* NeonOps() {
  static const Ops ops = {
      {&NeonOneToMany<Family::kL1>, &NeonOneToMany<Family::kL2>,
       &NeonOneToMany<Family::kLInf>},
      {&NeonOneToRows<Family::kL1>, &NeonOneToRows<Family::kL2>,
       &NeonOneToRows<Family::kLInf>},
      &NeonAnnulusMask,
  };
  return &ops;
}

}  // namespace internal
}  // namespace mvp::metric::kernels

#else  // !__aarch64__

namespace mvp::metric::kernels::internal {
const Ops* NeonOps() { return nullptr; }
}  // namespace mvp::metric::kernels::internal

#endif
