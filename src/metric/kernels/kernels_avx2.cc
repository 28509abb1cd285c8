// AVX2 tier: 4 double lanes, lane-per-object batching
// (docs/simd_kernels.md). Compiled with -mavx2 -ffp-contract=off; only ever
// called after the dispatcher has verified __builtin_cpu_supports("avx2").
//
// Bit-identity with the scalar reference in kernels.cc:
//   * each lane accumulates its own vector's dimensions strictly in order —
//     vectorisation is across the batch, never across dimensions;
//   * |x| is the sign-mask AND (vandpd), exactly libm fabs incl. NaN bits;
//   * L∞'s `if (diff > best)` is a _CMP_GT_OQ compare + blend, not max_pd
//     (maxpd returns the second operand on NaN — the wrong semantics);
//   * vsqrtpd and vaddpd/vmulpd are IEEE correctly rounded per lane, and
//     -ffp-contract=off forbids fusing the L2 multiply+add.

#include "metric/kernels/kernels.h"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace mvp::metric::kernels {
namespace {

inline __m256d AbsPd(__m256d v) {
  const __m256d sign_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  return _mm256_and_pd(v, sign_mask);
}

// Rows r0..r3 each hold 4 consecutive dimensions of one vector; columns
// c0..c3 each hold one dimension across the 4 vectors.
inline void Transpose4(__m256d r0, __m256d r1, __m256d r2, __m256d r3,
                       __m256d* c0, __m256d* c1, __m256d* c2, __m256d* c3) {
  const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
  const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
  const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
  const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
  *c0 = _mm256_permute2f128_pd(t0, t2, 0x20);
  *c1 = _mm256_permute2f128_pd(t1, t3, 0x20);
  *c2 = _mm256_permute2f128_pd(t0, t2, 0x31);
  *c3 = _mm256_permute2f128_pd(t1, t3, 0x31);
}

template <Family kFam>
inline __m256d Accumulate(__m256d acc, __m256d diff) {
  if constexpr (kFam == Family::kL1) {
    return _mm256_add_pd(acc, AbsPd(diff));
  } else if constexpr (kFam == Family::kL2) {
    return _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
  } else {
    const __m256d cur = AbsPd(diff);
    const __m256d gt = _mm256_cmp_pd(cur, acc, _CMP_GT_OQ);
    return _mm256_blendv_pd(acc, cur, gt);
  }
}

template <Family kFam>
inline __m256d Finish(__m256d acc) {
  if constexpr (kFam == Family::kL2) {
    return _mm256_sqrt_pd(acc);
  } else {
    return acc;
  }
}

// Four rows (lane-per-row) against one broadcast query. The subtraction is
// query - row, so NaN payload propagation matches the scalar `a[i] - b[i]`
// operand order exactly.
template <Family kFam>
inline void Distance4(const double* query, const double* const rows[4],
                      std::size_t dim, double* out4) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    __m256d c0, c1, c2, c3;
    Transpose4(_mm256_loadu_pd(rows[0] + i), _mm256_loadu_pd(rows[1] + i),
               _mm256_loadu_pd(rows[2] + i), _mm256_loadu_pd(rows[3] + i),
               &c0, &c1, &c2, &c3);
    const __m256d cols[4] = {c0, c1, c2, c3};
    for (int j = 0; j < 4; ++j) {
      const __m256d qv = _mm256_broadcast_sd(query + i + j);
      acc = Accumulate<kFam>(acc, _mm256_sub_pd(qv, cols[j]));
    }
  }
  for (; i < dim; ++i) {
    const __m256d col = _mm256_set_pd(rows[3][i], rows[2][i], rows[1][i],
                                      rows[0][i]);
    const __m256d qv = _mm256_broadcast_sd(query + i);
    acc = Accumulate<kFam>(acc, _mm256_sub_pd(qv, col));
  }
  _mm256_storeu_pd(out4, Finish<kFam>(acc));
}

template <Family kFam>
void Avx2OneToMany(const double* query, const double* objects,
                   std::size_t count, std::size_t stride, std::size_t dim,
                   double* out) {
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const double* rows[4] = {objects + (i + 0) * stride,
                             objects + (i + 1) * stride,
                             objects + (i + 2) * stride,
                             objects + (i + 3) * stride};
    Distance4<kFam>(query, rows, dim, out + i);
  }
  for (; i < count; ++i) {
    out[i] = PairDistance(kFam, query, objects + i * stride, dim);
  }
}

// A tail shorter than four runs as one more Distance4 whose missing lanes
// repeat the last row pointer, so it reads only rows the caller named.
template <Family kFam>
void Avx2OneToRows(const double* query, const double* const* rows,
                   std::size_t count, std::size_t dim, double* out) {
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    Distance4<kFam>(query, rows + i, dim, out + i);
  }
  if (i < count) {
    const double* tail[4];
    double vals[4];
    for (std::size_t j = 0; j < 4; ++j) {
      tail[j] = rows[std::min(i + j, count - 1)];
    }
    Distance4<kFam>(query, tail, dim, vals);
    for (std::size_t j = 0; i + j < count; ++j) out[i + j] = vals[j];
  }
}

// Column by column, four entries per compare, and a scalar tail.
std::uint64_t Avx2AnnulusMask(const double* centers,
                              const double* const* columns,
                              std::size_t num_columns, std::size_t count,
                              double radius) {
  const __m256d r = _mm256_set1_pd(radius);
  std::uint64_t mask = internal::LowBits(count);
  for (std::size_t c = 0; c < num_columns; ++c) {
    const __m256d center = _mm256_set1_pd(centers[c]);
    const double* values = columns[c];
    std::uint64_t bits = 0;
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
      const __m256d diff =
          AbsPd(_mm256_sub_pd(center, _mm256_loadu_pd(values + i)));
      const int le = _mm256_movemask_pd(_mm256_cmp_pd(diff, r, _CMP_LE_OQ));
      bits |= static_cast<std::uint64_t>(le) << i;
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

const Ops* Avx2Ops() {
  static const Ops ops = {
      {&Avx2OneToMany<Family::kL1>, &Avx2OneToMany<Family::kL2>,
       &Avx2OneToMany<Family::kLInf>},
      {&Avx2OneToRows<Family::kL1>, &Avx2OneToRows<Family::kL2>,
       &Avx2OneToRows<Family::kLInf>},
      &Avx2AnnulusMask,
  };
  return &ops;
}

}  // namespace internal
}  // namespace mvp::metric::kernels

#else  // !x86_64

namespace mvp::metric::kernels::internal {
const Ops* Avx2Ops() { return nullptr; }
}  // namespace mvp::metric::kernels::internal

#endif
