// AVX2 kernels in the canonical 16-lane order (see simd.h): two 8-lane
// accumulators per vector (lanes 0-7 and 8-15), explicit mul+add (this TU is
// compiled with -ffp-contract=off so the compiler cannot fuse them), masked
// tail, and the canonical pairwise reduction. Compiled only when the
// toolchain accepts -mavx2; guarded so the TU is empty otherwise.

#if defined(__AVX2__)

#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "core/simd/simd.h"

namespace gass::core::simd::internal {

namespace {

// Lane mask for an m-element partial vector, m in [0, 8]: lanes < m active.
inline __m256i MaskFor(std::size_t m) {
  alignas(32) static const std::int32_t kMaskTable[16] = {
      -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMaskTable + 8 - m));
}

// Canonical reduction of 16 lanes held as (lanes 0-7, lanes 8-15).
inline float Reduce16(__m256 lo, __m256 hi) {
  const __m256 s8 = _mm256_add_ps(lo, hi);  // s8[l] = acc[l] + acc[l+8]
  const __m128 s4 = _mm_add_ps(_mm256_castps256_ps128(s8),
                               _mm256_extractf128_ps(s8, 1));
  const __m128 s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
  const __m128 s1 = _mm_add_ss(s2, _mm_movehdup_ps(s2));
  return _mm_cvtss_f32(s1);
}

// Applies the canonical tail (rem in [0, 16)) starting at a/b to the
// accumulator pair. Masked-out lanes are left bit-untouched.
inline void TailL2(__m256* acc_lo, __m256* acc_hi, const float* a,
                   const float* b, std::size_t rem) {
  const std::size_t m_lo = rem < 8 ? rem : 8;
  if (m_lo > 0) {
    const __m256i mask = MaskFor(m_lo);
    const __m256 d =
        _mm256_sub_ps(_mm256_maskload_ps(a, mask), _mm256_maskload_ps(b, mask));
    const __m256 sum = _mm256_add_ps(*acc_lo, _mm256_mul_ps(d, d));
    *acc_lo = _mm256_blendv_ps(*acc_lo, sum, _mm256_castsi256_ps(mask));
  }
  if (rem > 8) {
    const __m256i mask = MaskFor(rem - 8);
    const __m256 d = _mm256_sub_ps(_mm256_maskload_ps(a + 8, mask),
                                   _mm256_maskload_ps(b + 8, mask));
    const __m256 sum = _mm256_add_ps(*acc_hi, _mm256_mul_ps(d, d));
    *acc_hi = _mm256_blendv_ps(*acc_hi, sum, _mm256_castsi256_ps(mask));
  }
}

inline void TailDot(__m256* acc_lo, __m256* acc_hi, const float* a,
                    const float* b, std::size_t rem) {
  const std::size_t m_lo = rem < 8 ? rem : 8;
  if (m_lo > 0) {
    const __m256i mask = MaskFor(m_lo);
    const __m256 p =
        _mm256_mul_ps(_mm256_maskload_ps(a, mask), _mm256_maskload_ps(b, mask));
    const __m256 sum = _mm256_add_ps(*acc_lo, p);
    *acc_lo = _mm256_blendv_ps(*acc_lo, sum, _mm256_castsi256_ps(mask));
  }
  if (rem > 8) {
    const __m256i mask = MaskFor(rem - 8);
    const __m256 p = _mm256_mul_ps(_mm256_maskload_ps(a + 8, mask),
                                   _mm256_maskload_ps(b + 8, mask));
    const __m256 sum = _mm256_add_ps(*acc_hi, p);
    *acc_hi = _mm256_blendv_ps(*acc_hi, sum, _mm256_castsi256_ps(mask));
  }
}

}  // namespace

float Avx2L2Sq(const float* a, const float* b, std::size_t dim) {
  __m256 acc_lo = _mm256_setzero_ps();
  __m256 acc_hi = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    const __m256 d0 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    const __m256 d1 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8));
    acc_lo = _mm256_add_ps(acc_lo, _mm256_mul_ps(d0, d0));
    acc_hi = _mm256_add_ps(acc_hi, _mm256_mul_ps(d1, d1));
  }
  TailL2(&acc_lo, &acc_hi, a + i, b + i, dim - i);
  return Reduce16(acc_lo, acc_hi);
}

float Avx2Dot(const float* a, const float* b, std::size_t dim) {
  __m256 acc_lo = _mm256_setzero_ps();
  __m256 acc_hi = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    acc_lo = _mm256_add_ps(
        acc_lo, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
    acc_hi = _mm256_add_ps(acc_hi, _mm256_mul_ps(_mm256_loadu_ps(a + i + 8),
                                                 _mm256_loadu_ps(b + i + 8)));
  }
  TailDot(&acc_lo, &acc_hi, a + i, b + i, dim - i);
  return Reduce16(acc_lo, acc_hi);
}

float Avx2Norm(const float* a, std::size_t dim) {
  return std::sqrt(Avx2Dot(a, a, dim));
}

namespace {

// kRows rows at once: query loads are shared, each row keeps its own
// accumulator pair in the canonical order (bit-identical to Avx2L2Sq).
template <std::size_t kRows>
inline void L2SqRows(const float* query, const float* const* rows,
                     std::size_t dim, float* out) {
  __m256 lo[kRows];
  __m256 hi[kRows];
  for (std::size_t j = 0; j < kRows; ++j) {
    lo[j] = _mm256_setzero_ps();
    hi[j] = _mm256_setzero_ps();
  }
  std::size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    const __m256 q_lo = _mm256_loadu_ps(query + i);
    const __m256 q_hi = _mm256_loadu_ps(query + i + 8);
    for (std::size_t j = 0; j < kRows; ++j) {
      const __m256 d0 = _mm256_sub_ps(q_lo, _mm256_loadu_ps(rows[j] + i));
      const __m256 d1 = _mm256_sub_ps(q_hi, _mm256_loadu_ps(rows[j] + i + 8));
      lo[j] = _mm256_add_ps(lo[j], _mm256_mul_ps(d0, d0));
      hi[j] = _mm256_add_ps(hi[j], _mm256_mul_ps(d1, d1));
    }
  }
  for (std::size_t j = 0; j < kRows; ++j) {
    TailL2(&lo[j], &hi[j], query + i, rows[j] + i, dim - i);
    out[j] = Reduce16(lo[j], hi[j]);
  }
}

}  // namespace

void Avx2L2SqBatch(const float* query, const float* const* rows, std::size_t n,
                   std::size_t dim, float* out) {
  std::size_t r = 0;
  for (; r + 4 <= n; r += 4) L2SqRows<4>(query, rows + r, dim, out + r);
  if (r + 2 <= n) {
    L2SqRows<2>(query, rows + r, dim, out + r);
    r += 2;
  }
  if (r < n) out[r] = Avx2L2Sq(query, rows[r], dim);
}

void Avx2DotBatch(const float* query, const float* const* rows, std::size_t n,
                  std::size_t dim, float* out) {
  std::size_t r = 0;
  for (; r + 2 <= n; r += 2) {
    const float* b0 = rows[r];
    const float* b1 = rows[r + 1];
    __m256 a0_lo = _mm256_setzero_ps(), a0_hi = _mm256_setzero_ps();
    __m256 a1_lo = _mm256_setzero_ps(), a1_hi = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 16 <= dim; i += 16) {
      const __m256 q_lo = _mm256_loadu_ps(query + i);
      const __m256 q_hi = _mm256_loadu_ps(query + i + 8);
      a0_lo = _mm256_add_ps(a0_lo,
                            _mm256_mul_ps(q_lo, _mm256_loadu_ps(b0 + i)));
      a0_hi = _mm256_add_ps(a0_hi,
                            _mm256_mul_ps(q_hi, _mm256_loadu_ps(b0 + i + 8)));
      a1_lo = _mm256_add_ps(a1_lo,
                            _mm256_mul_ps(q_lo, _mm256_loadu_ps(b1 + i)));
      a1_hi = _mm256_add_ps(a1_hi,
                            _mm256_mul_ps(q_hi, _mm256_loadu_ps(b1 + i + 8)));
    }
    TailDot(&a0_lo, &a0_hi, query + i, b0 + i, dim - i);
    TailDot(&a1_lo, &a1_hi, query + i, b1 + i, dim - i);
    out[r] = Reduce16(a0_lo, a0_hi);
    out[r + 1] = Reduce16(a1_lo, a1_hi);
  }
  if (r < n) out[r] = Avx2Dot(query, rows[r], dim);
}

}  // namespace gass::core::simd::internal

#endif  // defined(__AVX2__)
