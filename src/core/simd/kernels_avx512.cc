// AVX-512F kernels in the canonical 16-lane order (see simd.h): one 16-lane
// accumulator per vector, native masked tail (untouched lanes keep their
// bits via _mm512_mask_add_ps), explicit mul+add (-ffp-contract=off), and
// the canonical pairwise reduction built from AVX512F-only extracts.
// Compiled only when the toolchain accepts -mavx512f; empty TU otherwise.

#if defined(__AVX512F__)

#include <immintrin.h>

#include <cmath>
#include <cstddef>

#include "core/simd/simd.h"

namespace gass::core::simd::internal {

namespace {

// Canonical reduction of one 16-lane accumulator: halves give s8 (lanes
// l and l+8 added), then the same 8->4->2->1 schedule as the AVX2 and
// scalar reductions, bit for bit. The accumulator is spilled through an
// aligned buffer because GCC's AVX-512 lane-extract intrinsics are built on
// _mm256_undefined_pd and trip -Wuninitialized; one L1 store+reload per
// distance is noise next to the main loop.
inline float Reduce16(__m512 acc) {
  alignas(64) float lanes[16];
  _mm512_store_ps(lanes, acc);
  const __m256 lo = _mm256_load_ps(lanes);      // lanes 0-7
  const __m256 hi = _mm256_load_ps(lanes + 8);  // lanes 8-15
  const __m256 s8 = _mm256_add_ps(lo, hi);
  const __m128 s4 =
      _mm_add_ps(_mm256_castps256_ps128(s8), _mm256_extractf128_ps(s8, 1));
  const __m128 s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
  const __m128 s1 = _mm_add_ss(s2, _mm_movehdup_ps(s2));
  return _mm_cvtss_f32(s1);
}

}  // namespace

float Avx512L2Sq(const float* a, const float* b, std::size_t dim) {
  __m512 acc = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    const __m512 d =
        _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    acc = _mm512_add_ps(acc, _mm512_mul_ps(d, d));
  }
  const std::size_t rem = dim - i;
  if (rem > 0) {
    const __mmask16 mask = static_cast<__mmask16>((1u << rem) - 1u);
    const __m512 d = _mm512_sub_ps(_mm512_maskz_loadu_ps(mask, a + i),
                                   _mm512_maskz_loadu_ps(mask, b + i));
    acc = _mm512_mask_add_ps(acc, mask, acc, _mm512_mul_ps(d, d));
  }
  return Reduce16(acc);
}

float Avx512Dot(const float* a, const float* b, std::size_t dim) {
  __m512 acc = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    acc = _mm512_add_ps(
        acc, _mm512_mul_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i)));
  }
  const std::size_t rem = dim - i;
  if (rem > 0) {
    const __mmask16 mask = static_cast<__mmask16>((1u << rem) - 1u);
    const __m512 p = _mm512_mul_ps(_mm512_maskz_loadu_ps(mask, a + i),
                                   _mm512_maskz_loadu_ps(mask, b + i));
    acc = _mm512_mask_add_ps(acc, mask, acc, p);
  }
  return Reduce16(acc);
}

float Avx512Norm(const float* a, std::size_t dim) {
  return std::sqrt(Avx512Dot(a, a, dim));
}

namespace {

// kRows rows at once: query loads are shared, each row keeps its own
// canonical accumulator (bit-identical to Avx512L2Sq). The fixed-size
// loops over rows unroll completely, keeping every accumulator in a
// register.
template <std::size_t kRows>
inline void L2SqRows(const float* query, const float* const* rows,
                     std::size_t dim, float* out) {
  __m512 acc[kRows];
  for (std::size_t j = 0; j < kRows; ++j) acc[j] = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    const __m512 q = _mm512_loadu_ps(query + i);
    for (std::size_t j = 0; j < kRows; ++j) {
      const __m512 d = _mm512_sub_ps(q, _mm512_loadu_ps(rows[j] + i));
      acc[j] = _mm512_add_ps(acc[j], _mm512_mul_ps(d, d));
    }
  }
  const std::size_t rem = dim - i;
  if (rem > 0) {
    const __mmask16 mask = static_cast<__mmask16>((1u << rem) - 1u);
    const __m512 q = _mm512_maskz_loadu_ps(mask, query + i);
    for (std::size_t j = 0; j < kRows; ++j) {
      const __m512 d =
          _mm512_sub_ps(q, _mm512_maskz_loadu_ps(mask, rows[j] + i));
      acc[j] = _mm512_mask_add_ps(acc[j], mask, acc[j], _mm512_mul_ps(d, d));
    }
  }
  for (std::size_t j = 0; j < kRows; ++j) out[j] = Reduce16(acc[j]);
}

}  // namespace

void Avx512L2SqBatch(const float* query, const float* const* rows,
                     std::size_t n, std::size_t dim, float* out) {
  std::size_t r = 0;
  for (; r + 4 <= n; r += 4) L2SqRows<4>(query, rows + r, dim, out + r);
  if (r + 2 <= n) {
    L2SqRows<2>(query, rows + r, dim, out + r);
    r += 2;
  }
  if (r < n) out[r] = Avx512L2Sq(query, rows[r], dim);
}

void Avx512DotBatch(const float* query, const float* const* rows,
                    std::size_t n, std::size_t dim, float* out) {
  std::size_t r = 0;
  for (; r + 2 <= n; r += 2) {
    const float* b0 = rows[r];
    const float* b1 = rows[r + 1];
    __m512 acc0 = _mm512_setzero_ps();
    __m512 acc1 = _mm512_setzero_ps();
    std::size_t i = 0;
    for (; i + 16 <= dim; i += 16) {
      const __m512 q = _mm512_loadu_ps(query + i);
      acc0 = _mm512_add_ps(acc0, _mm512_mul_ps(q, _mm512_loadu_ps(b0 + i)));
      acc1 = _mm512_add_ps(acc1, _mm512_mul_ps(q, _mm512_loadu_ps(b1 + i)));
    }
    const std::size_t rem = dim - i;
    if (rem > 0) {
      const __mmask16 mask = static_cast<__mmask16>((1u << rem) - 1u);
      const __m512 q = _mm512_maskz_loadu_ps(mask, query + i);
      const __m512 p0 = _mm512_mul_ps(q, _mm512_maskz_loadu_ps(mask, b0 + i));
      const __m512 p1 = _mm512_mul_ps(q, _mm512_maskz_loadu_ps(mask, b1 + i));
      acc0 = _mm512_mask_add_ps(acc0, mask, acc0, p0);
      acc1 = _mm512_mask_add_ps(acc1, mask, acc1, p1);
    }
    out[r] = Reduce16(acc0);
    out[r + 1] = Reduce16(acc1);
  }
  if (r < n) out[r] = Avx512Dot(query, rows[r], dim);
}

}  // namespace gass::core::simd::internal

#endif  // defined(__AVX512F__)
