// AVX-512 tier: 8 double lanes, lane-per-object batching
// (docs/simd_kernels.md). Compiled with -mavx512f -mavx512dq
// -ffp-contract=off; only ever called after the dispatcher has verified
// avx512f+avx512dq support. Bit-identity rules are the same as the AVX2
// tier: vectorise across the batch, sequential per-lane accumulation,
// sign-mask abs, compare+blend L∞, no FMA.

#include "metric/kernels/kernels.h"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace mvp::metric::kernels {
namespace {

inline __m512d Abs512(__m512d v) { return _mm512_abs_pd(v); }

// 4x4 transpose of 256-bit rows (shared with the AVX2 tier's layout).
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
inline __m512d Accumulate(__m512d acc, __m512d diff) {
  if constexpr (kFam == Family::kL1) {
    return _mm512_add_pd(acc, Abs512(diff));
  } else if constexpr (kFam == Family::kL2) {
    return _mm512_add_pd(acc, _mm512_mul_pd(diff, diff));
  } else {
    const __m512d cur = Abs512(diff);
    const __mmask8 gt = _mm512_cmp_pd_mask(cur, acc, _CMP_GT_OQ);
    return _mm512_mask_blend_pd(gt, acc, cur);
  }
}

template <Family kFam>
inline __m512d Finish(__m512d acc) {
  if constexpr (kFam == Family::kL2) {
    return _mm512_sqrt_pd(acc);
  } else {
    return acc;
  }
}

// Eight rows (lane-per-row) against one broadcast query, subtracting
// query - row as the scalar reference does. The column gather is two 4x4
// 256-bit transposes glued with insertf64x4.
template <Family kFam>
inline void Distance8(const double* query, const double* const rows[8],
                      std::size_t dim, double* out8) {
  __m512d acc = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    __m256d lo[4];
    __m256d hi[4];
    Transpose4(_mm256_loadu_pd(rows[0] + i), _mm256_loadu_pd(rows[1] + i),
               _mm256_loadu_pd(rows[2] + i), _mm256_loadu_pd(rows[3] + i),
               &lo[0], &lo[1], &lo[2], &lo[3]);
    Transpose4(_mm256_loadu_pd(rows[4] + i), _mm256_loadu_pd(rows[5] + i),
               _mm256_loadu_pd(rows[6] + i), _mm256_loadu_pd(rows[7] + i),
               &hi[0], &hi[1], &hi[2], &hi[3]);
    for (int j = 0; j < 4; ++j) {
      const __m512d col = _mm512_insertf64x4(
          _mm512_castpd256_pd512(lo[j]), hi[j], 1);
      const __m512d qv = _mm512_set1_pd(query[i + j]);
      acc = Accumulate<kFam>(acc, _mm512_sub_pd(qv, col));
    }
  }
  for (; i < dim; ++i) {
    const __m512d col =
        _mm512_set_pd(rows[7][i], rows[6][i], rows[5][i], rows[4][i],
                      rows[3][i], rows[2][i], rows[1][i], rows[0][i]);
    const __m512d qv = _mm512_set1_pd(query[i]);
    acc = Accumulate<kFam>(acc, _mm512_sub_pd(qv, col));
  }
  _mm512_storeu_pd(out8, Finish<kFam>(acc));
}

template <Family kFam>
void Avx512OneToMany(const double* query, const double* objects,
                     std::size_t count, std::size_t stride, std::size_t dim,
                     double* out) {
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const double* rows[8];
    for (int j = 0; j < 8; ++j) rows[j] = objects + (i + j) * stride;
    Distance8<kFam>(query, rows, dim, out + i);
  }
  for (; i < count; ++i) {
    out[i] = PairDistance(kFam, query, objects + i * stride, dim);
  }
}

// A tail shorter than eight runs as one more Distance8 whose missing lanes
// repeat the last row pointer, so it reads only rows the caller named.
template <Family kFam>
void Avx512OneToRows(const double* query, const double* const* rows,
                     std::size_t count, std::size_t dim, double* out) {
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    Distance8<kFam>(query, rows + i, dim, out + i);
  }
  if (i < count) {
    const double* tail[8];
    double vals[8];
    for (std::size_t j = 0; j < 8; ++j) {
      tail[j] = rows[std::min(i + j, count - 1)];
    }
    Distance8<kFam>(query, tail, dim, vals);
    for (std::size_t j = 0; i + j < count; ++j) out[i + j] = vals[j];
  }
}

// Column by column, eight entries per compare: eight floats per 256-bit
// load, widened to eight doubles. A tail shorter than eight is one masked
// load, which reads no lane past `count`.
std::uint64_t Avx512AnnulusMask(const double* centers, const double* radii,
                                const float* const* columns,
                                std::size_t num_columns, std::size_t count) {
  std::uint64_t mask = internal::LowBits(count);
  for (std::size_t c = 0; c < num_columns; ++c) {
    const __m512d center = _mm512_set1_pd(centers[c]);
    const __m512d r = _mm512_set1_pd(radii[c]);
    const float* values = columns[c];
    std::uint64_t bits = 0;
    std::size_t i = 0;
    for (; i + 8 <= count; i += 8) {
      const __m512d wide = _mm512_cvtps_pd(_mm256_loadu_ps(values + i));
      const __m512d diff = Abs512(_mm512_sub_pd(center, wide));
      bits |= static_cast<std::uint64_t>(
                  _mm512_cmp_pd_mask(diff, r, _CMP_LE_OQ))
              << i;
    }
    if (i < count) {
      const auto lanes = static_cast<__mmask16>(internal::LowBits(count - i));
      const __m512d wide = _mm512_cvtps_pd(
          _mm512_castps512_ps256(_mm512_maskz_loadu_ps(lanes, values + i)));
      const __m512d diff = Abs512(_mm512_sub_pd(center, wide));
      bits |= static_cast<std::uint64_t>(_mm512_mask_cmp_pd_mask(
                  static_cast<__mmask8>(lanes), diff, r, _CMP_LE_OQ))
              << i;
    }
    mask &= bits;
  }
  return mask;
}

}  // namespace

namespace internal {

const Ops* Avx512Ops() {
  static const Ops ops = {
      {&Avx512OneToMany<Family::kL1>, &Avx512OneToMany<Family::kL2>,
       &Avx512OneToMany<Family::kLInf>},
      {&Avx512OneToRows<Family::kL1>, &Avx512OneToRows<Family::kL2>,
       &Avx512OneToRows<Family::kLInf>},
      &Avx512AnnulusMask,
  };
  return &ops;
}

}  // namespace internal
}  // namespace mvp::metric::kernels

#else  // !x86_64

namespace mvp::metric::kernels::internal {
const Ops* Avx512Ops() { return nullptr; }
}  // namespace mvp::metric::kernels::internal

#endif
