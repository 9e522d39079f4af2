// Tests of the SIMD distance-kernel subsystem: the canonical-order
// bit-identity contract between every compiled-in level and the scalar
// reference, batch-vs-loop exactness, NaN/Inf propagation, and the
// dispatch/override policy.

#include "core/simd/simd.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"

namespace gass::core::simd {
namespace {

// Bitwise float comparison: the contract is exact equality, not tolerance.
::testing::AssertionResult BitEqual(float actual, float expected) {
  std::uint32_t a_bits, e_bits;
  std::memcpy(&a_bits, &actual, sizeof(a_bits));
  std::memcpy(&e_bits, &expected, sizeof(e_bits));
  if (a_bits == e_bits) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << actual << " (0x" << std::hex << a_bits << ") != " << expected
         << " (0x" << e_bits << ")";
}

std::vector<float> RandomVector(std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(dim);
  for (float& x : v) x = rng.UniformFloat(-3.0f, 3.0f);
  return v;
}

TEST(SimdLevelTest, NamesRoundTrip) {
  for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kNeon,
                          SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    SimdLevel parsed = SimdLevel::kScalar;
    ASSERT_TRUE(ParseSimdLevel(SimdLevelName(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
}

TEST(SimdLevelTest, ParseRejectsUnknownNames) {
  SimdLevel out = SimdLevel::kAvx2;
  EXPECT_FALSE(ParseSimdLevel(nullptr, &out));
  EXPECT_FALSE(ParseSimdLevel("", &out));
  EXPECT_FALSE(ParseSimdLevel("auto", &out));
  EXPECT_FALSE(ParseSimdLevel("AVX2", &out));
  EXPECT_FALSE(ParseSimdLevel("sse", &out));
  EXPECT_EQ(out, SimdLevel::kAvx2);  // Untouched on failure.
}

TEST(SimdLevelTest, ScalarIsAlwaysSupported) {
  EXPECT_TRUE(IsSupported(SimdLevel::kScalar));
  const std::vector<SimdLevel> levels = SupportedSimdLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), SimdLevel::kScalar);
  for (SimdLevel level : levels) EXPECT_TRUE(IsSupported(level));
}

TEST(SimdLevelTest, DetectedLevelIsSupported) {
  EXPECT_TRUE(IsSupported(DetectedSimdLevel()));
}

TEST(SimdLevelTest, ResolvePolicy) {
  const SimdLevel detected = DetectedSimdLevel();
  EXPECT_EQ(ResolveSimdLevel(nullptr), detected);
  EXPECT_EQ(ResolveSimdLevel(""), detected);
  EXPECT_EQ(ResolveSimdLevel("auto"), detected);
  EXPECT_EQ(ResolveSimdLevel("not-a-level"), detected);
  EXPECT_EQ(ResolveSimdLevel("scalar"), SimdLevel::kScalar);
  for (SimdLevel level : SupportedSimdLevels()) {
    EXPECT_EQ(ResolveSimdLevel(SimdLevelName(level)), level);
  }
}

TEST(SimdLevelTest, ActiveKernelsMatchActiveLevel) {
  EXPECT_TRUE(IsSupported(ActiveSimdLevel()));
  EXPECT_EQ(&ActiveKernels(), &KernelsFor(ActiveSimdLevel()));
}

TEST(SimdKernelsTest, TablesAreFullyPopulated) {
  for (SimdLevel level : SupportedSimdLevels()) {
    const DistanceKernels& k = KernelsFor(level);
    EXPECT_NE(k.l2sq, nullptr);
    EXPECT_NE(k.dot, nullptr);
    EXPECT_NE(k.norm, nullptr);
    EXPECT_NE(k.l2sq_batch, nullptr);
    EXPECT_NE(k.dot_batch, nullptr);
  }
}

// The heart of the contract: every compiled-in level agrees with the scalar
// reference to the last bit, for every dimension through two full blocks
// plus every tail length.
TEST(SimdKernelsTest, AllLevelsBitIdenticalToScalar) {
  const DistanceKernels& ref = KernelsFor(SimdLevel::kScalar);
  for (SimdLevel level : SupportedSimdLevels()) {
    const DistanceKernels& k = KernelsFor(level);
    for (std::size_t dim = 1; dim <= 130; ++dim) {
      const std::vector<float> a = RandomVector(dim, dim * 2 + 1);
      const std::vector<float> b = RandomVector(dim, dim * 2 + 2);
      EXPECT_TRUE(BitEqual(k.l2sq(a.data(), b.data(), dim),
                           ref.l2sq(a.data(), b.data(), dim)))
          << SimdLevelName(level) << " l2sq dim=" << dim;
      EXPECT_TRUE(BitEqual(k.dot(a.data(), b.data(), dim),
                           ref.dot(a.data(), b.data(), dim)))
          << SimdLevelName(level) << " dot dim=" << dim;
      EXPECT_TRUE(BitEqual(k.norm(a.data(), dim), ref.norm(a.data(), dim)))
          << SimdLevelName(level) << " norm dim=" << dim;
    }
  }
}

TEST(SimdKernelsTest, BatchMatchesLoopBitwise) {
  // Batch sizes 1-9 walk every mix of the 4-, 2- and 1-row blocks; 32 is
  // beam search's gather size and 37 adds an odd tail after many blocks.
  constexpr std::size_t kMaxRows = 37;
  for (SimdLevel level : SupportedSimdLevels()) {
    const DistanceKernels& k = KernelsFor(level);
    for (std::size_t dim : {1u, 7u, 16u, 33u, 96u, 128u, 130u}) {
      const std::vector<float> query = RandomVector(dim, dim);
      std::vector<std::vector<float>> storage;
      std::vector<const float*> rows;
      for (std::size_t r = 0; r < kMaxRows; ++r) {
        storage.push_back(RandomVector(dim, 1000 + r));
        rows.push_back(storage.back().data());
      }
      for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 32u, 37u}) {
        std::vector<float> batch_l2(n), batch_dot(n);
        k.l2sq_batch(query.data(), rows.data(), n, dim, batch_l2.data());
        k.dot_batch(query.data(), rows.data(), n, dim, batch_dot.data());
        for (std::size_t r = 0; r < n; ++r) {
          EXPECT_TRUE(
              BitEqual(batch_l2[r], k.l2sq(query.data(), rows[r], dim)))
              << SimdLevelName(level) << " l2sq_batch dim=" << dim
              << " n=" << n << " row=" << r;
          EXPECT_TRUE(
              BitEqual(batch_dot[r], k.dot(query.data(), rows[r], dim)))
              << SimdLevelName(level) << " dot_batch dim=" << dim
              << " n=" << n << " row=" << r;
        }
      }
    }
  }
}

TEST(SimdKernelsTest, NanPropagates) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (SimdLevel level : SupportedSimdLevels()) {
    const DistanceKernels& k = KernelsFor(level);
    for (std::size_t dim : {1u, 5u, 16u, 17u, 40u}) {
      for (std::size_t at : {std::size_t{0}, dim / 2, dim - 1}) {
        std::vector<float> a = RandomVector(dim, dim);
        const std::vector<float> b = RandomVector(dim, dim + 1);
        a[at] = nan;
        EXPECT_TRUE(std::isnan(k.l2sq(a.data(), b.data(), dim)))
            << SimdLevelName(level) << " dim=" << dim << " at=" << at;
        EXPECT_TRUE(std::isnan(k.dot(a.data(), b.data(), dim)))
            << SimdLevelName(level) << " dim=" << dim << " at=" << at;
        EXPECT_TRUE(std::isnan(k.norm(a.data(), dim)))
            << SimdLevelName(level) << " dim=" << dim << " at=" << at;
      }
    }
  }
}

TEST(SimdKernelsTest, InfinityPropagates) {
  const float inf = std::numeric_limits<float>::infinity();
  for (SimdLevel level : SupportedSimdLevels()) {
    const DistanceKernels& k = KernelsFor(level);
    for (std::size_t dim : {3u, 16u, 19u}) {
      std::vector<float> a = RandomVector(dim, dim);
      std::vector<float> b = RandomVector(dim, dim + 1);
      a[dim - 1] = inf;
      // (inf - finite)^2 = inf; inf * finite keeps its sign in dot.
      EXPECT_TRUE(std::isinf(k.l2sq(a.data(), b.data(), dim)))
          << SimdLevelName(level) << " dim=" << dim;
      b[dim - 1] = 2.0f;
      EXPECT_TRUE(std::isinf(k.dot(a.data(), b.data(), dim)))
          << SimdLevelName(level) << " dim=" << dim;
      // inf - inf = NaN must come through the subtract, not be masked out.
      b[dim - 1] = inf;
      EXPECT_TRUE(std::isnan(k.l2sq(a.data(), b.data(), dim)))
          << SimdLevelName(level) << " dim=" << dim;
    }
  }
}

TEST(SimdKernelsTest, ZeroAndSelfDistance) {
  for (SimdLevel level : SupportedSimdLevels()) {
    const DistanceKernels& k = KernelsFor(level);
    for (std::size_t dim : {1u, 16u, 31u, 128u}) {
      const std::vector<float> a = RandomVector(dim, dim);
      EXPECT_EQ(k.l2sq(a.data(), a.data(), dim), 0.0f)
          << SimdLevelName(level) << " dim=" << dim;
      const std::vector<float> zeros(dim, 0.0f);
      EXPECT_EQ(k.dot(a.data(), zeros.data(), dim), 0.0f);
      EXPECT_EQ(k.norm(zeros.data(), dim), 0.0f);
    }
  }
}

}  // namespace
}  // namespace gass::core::simd
