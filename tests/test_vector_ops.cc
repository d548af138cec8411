#include "embedding/vector_ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <utility>
#include <vector>

#include "embedding/simd_kernels.h"
#include "embedding/vector_slab.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace cortex {
namespace {

using cortex::testing::ScopedVariant;

TEST(VectorOps, DotProduct) {
  const Vector a = {1, 2, 3};
  const Vector b = {4, -5, 6};
  EXPECT_DOUBLE_EQ(Dot(a, b), 12.0);
}

TEST(VectorOps, L2NormAndDistance) {
  const Vector a = {3, 4};
  EXPECT_DOUBLE_EQ(L2Norm(a), 5.0);
  const Vector b = {0, 0};
  EXPECT_DOUBLE_EQ(L2DistanceSquared(a, b), 25.0);
}

TEST(VectorOps, CosineOfParallelVectorsIsOne) {
  const Vector a = {1, 2, 3};
  const Vector b = {2, 4, 6};
  EXPECT_NEAR(CosineSimilarity(a, b), 1.0, 1e-12);
}

TEST(VectorOps, CosineOfOrthogonalVectorsIsZero) {
  const Vector a = {1, 0};
  const Vector b = {0, 1};
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, b), 0.0);
}

TEST(VectorOps, CosineOfOppositeVectorsIsMinusOne) {
  const Vector a = {1, 1};
  const Vector b = {-1, -1};
  EXPECT_NEAR(CosineSimilarity(a, b), -1.0, 1e-12);
}

TEST(VectorOps, CosineWithZeroVectorIsZero) {
  const Vector a = {0, 0};
  const Vector b = {1, 2};
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, b), 0.0);
}

TEST(VectorOps, NormalizeProducesUnitLength) {
  Vector v = {3, 4, 12};
  Normalize(v);
  EXPECT_NEAR(L2Norm(v), 1.0, 1e-6);
}

TEST(VectorOps, NormalizeZeroVectorIsNoop) {
  Vector v = {0, 0, 0};
  Normalize(v);
  EXPECT_EQ(v, (Vector{0, 0, 0}));
}

TEST(VectorOps, AddAndScaleInPlace) {
  Vector a = {1, 2};
  const Vector b = {3, 4};
  AddInPlace(a, b);
  EXPECT_EQ(a, (Vector{4, 6}));
  ScaleInPlace(a, 0.5f);
  EXPECT_EQ(a, (Vector{2, 3}));
}

TEST(VectorOps, CosineBoundedForRandomVectors) {
  Rng rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    Vector a(32), b(32);
    for (auto& x : a) x = static_cast<float>(rng.Normal());
    for (auto& x : b) x = static_cast<float>(rng.Normal());
    const double c = CosineSimilarity(a, b);
    EXPECT_GE(c, -1.0 - 1e-9);
    EXPECT_LE(c, 1.0 + 1e-9);
  }
}

TEST(VectorOps, TriangleConsistency) {
  // ||a-b||^2 = ||a||^2 + ||b||^2 - 2<a,b>.  Tolerance follows the kernel
  // numerics policy (simd_kernels.h): SIMD variants accumulate in float
  // lanes, so the identity holds to ~1e-5 relative, not double precision.
  Rng rng(2);
  Vector a(16), b(16);
  for (auto& x : a) x = static_cast<float>(rng.Normal());
  for (auto& x : b) x = static_cast<float>(rng.Normal());
  const double lhs = L2DistanceSquared(a, b);
  const double rhs = Dot(a, a) + Dot(b, b) - 2 * Dot(a, b);
  EXPECT_NEAR(lhs, rhs, 1e-5 * (std::abs(rhs) + 1.0));
}

// ---------------------------------------------------------------------------
// SIMD kernel layer

TEST(SimdKernels, ScalarAlwaysSupportedAndNamed) {
  EXPECT_TRUE(simd::VariantSupported(simd::Variant::kScalar));
  const auto variants = simd::SupportedVariants();
  ASSERT_FALSE(variants.empty());
  EXPECT_EQ(variants.front(), simd::Variant::kScalar);
  for (const auto v : variants) {
    EXPECT_STRNE(simd::VariantName(v), "");
  }
  // The resolved dispatch must itself be a supported variant.
  EXPECT_TRUE(simd::VariantSupported(simd::ActiveVariant()));
}

TEST(SimdKernels, ForceVariantSwapsAndRestores) {
  const auto original = simd::ActiveVariant();
  {
    ScopedVariant forced(simd::Variant::kScalar);
    ASSERT_TRUE(forced.forced());
    EXPECT_EQ(simd::ActiveVariant(), simd::Variant::kScalar);
  }
  EXPECT_EQ(simd::ActiveVariant(), original);
  // Unsupported variants are rejected without changing the dispatch.
#if !defined(__aarch64__)
  EXPECT_FALSE(simd::ForceVariant(simd::Variant::kNeon));
  EXPECT_EQ(simd::ActiveVariant(), original);
#endif
}

// AVX2 is the only vectorized x86 table, so it must win dispatch wherever
// the CPU runs it.
TEST(SimdKernels, BestSupportedVariantIsAvx2WheneverSupported) {
  const auto best = simd::BestSupportedVariant();
  EXPECT_TRUE(simd::VariantSupported(best));
  if (simd::VariantSupported(simd::Variant::kAvx2)) {
    EXPECT_EQ(best, simd::Variant::kAvx2);
  }
}

// CORTEX_SIMD is outside input: any value but a known variant name aborts
// at first dispatch.  The threadsafe style re-executes the binary, so the
// child resolves dispatch fresh from the environment set here.
class SimdDispatchDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST_F(SimdDispatchDeathTest, UnknownCortexSimdValueAborts) {
  // The deleted 16-lane x86 variant's old name comes first; it is spelled
  // in two pieces so a grep for it finds no live reference in the tree.
  for (const char* value : {"avx" "512", "fast-please"}) {
    EXPECT_DEATH(
        {
          ::setenv("CORTEX_SIMD", value, /*overwrite=*/1);
          simd::ActiveVariant();
        },
        "is not one of scalar\\|avx2\\|neon")
        << "CORTEX_SIMD=" << value;
  }
}

// Every compiled-and-runnable variant must agree with the scalar reference
// within 1e-5 relative tolerance, across dims that exercise every tail path
// (non-multiples of 8/16 lanes) and deliberately misaligned spans.
TEST(SimdKernels, AllVariantsMatchScalarReference) {
  Rng rng(7);
  const auto& scalar = simd::KernelsFor(simd::Variant::kScalar);
  const auto variants = simd::SupportedVariants();
  const std::size_t dims[] = {1,  2,  3,   5,   7,   8,   9,    15,  16,
                              17, 31, 32,  33,  63,  64,  65,   100, 127,
                              128, 129, 255, 256, 257, 768, 1000, 1536, 1537};
  for (const std::size_t dim : dims) {
    // +1 slack so the offset-1 pass reads in-bounds but misaligned.
    std::vector<float> abuf(dim + 1), bbuf(dim + 1);
    for (auto& x : abuf) x = static_cast<float>(rng.Normal());
    for (auto& x : bbuf) x = static_cast<float>(rng.Normal());
    for (const std::size_t offset : {std::size_t{0}, std::size_t{1}}) {
      const float* a = abuf.data() + offset;
      const float* b = bbuf.data() + offset;
      const double ref_dot = scalar.dot(a, b, dim);
      const double ref_l2 = scalar.l2sq(a, b, dim);
      for (const auto v : variants) {
        const auto& ks = simd::KernelsFor(v);
        EXPECT_NEAR(ks.dot(a, b, dim), ref_dot,
                    1e-5 * (std::abs(ref_dot) + 1.0))
            << simd::VariantName(v) << " dot dim=" << dim
            << " offset=" << offset;
        EXPECT_NEAR(ks.l2sq(a, b, dim), ref_l2, 1e-5 * (ref_l2 + 1.0))
            << simd::VariantName(v) << " l2sq dim=" << dim
            << " offset=" << offset;
      }
    }
  }
}

// Batched kernels (contiguous strided, gather, and L2) must agree with the
// scalar single-pair reference row by row, including padded strides.
TEST(SimdKernels, BatchKernelsMatchSingleQueryReference) {
  Rng rng(11);
  const auto& scalar = simd::KernelsFor(simd::Variant::kScalar);
  const auto variants = simd::SupportedVariants();
  for (const std::size_t dim : {std::size_t{5}, std::size_t{64},
                                std::size_t{257}, std::size_t{768}}) {
    const std::size_t n = 37;           // not a multiple of the 4-row block
    const std::size_t stride = dim + 3;  // padded, misaligns every row
    std::vector<float> rows(n * stride), query(dim);
    for (auto& x : rows) x = static_cast<float>(rng.Normal());
    for (auto& x : query) x = static_cast<float>(rng.Normal());
    std::vector<const float*> ptrs(n);
    for (std::size_t i = 0; i < n; ++i) ptrs[i] = rows.data() + i * stride;
    // Scatter the gather order so dot_rows cannot rely on contiguity.
    std::reverse(ptrs.begin(), ptrs.end());

    std::vector<float> dots(n), gathers(n), l2s(n);
    for (const auto v : variants) {
      const auto& ks = simd::KernelsFor(v);
      ks.dot_batch(query.data(), rows.data(), n, stride, dim, dots.data());
      ks.dot_rows(query.data(), ptrs.data(), n, dim, gathers.data());
      ks.l2sq_batch(query.data(), rows.data(), n, stride, dim, l2s.data());
      for (std::size_t i = 0; i < n; ++i) {
        const double ref =
            scalar.dot(query.data(), rows.data() + i * stride, dim);
        const double ref_g = scalar.dot(query.data(), ptrs[i], dim);
        const double ref_l2 =
            scalar.l2sq(query.data(), rows.data() + i * stride, dim);
        EXPECT_NEAR(dots[i], ref, 1e-5 * (std::abs(ref) + 1.0))
            << simd::VariantName(v) << " dot_batch dim=" << dim << " i=" << i;
        EXPECT_NEAR(gathers[i], ref_g, 1e-5 * (std::abs(ref_g) + 1.0))
            << simd::VariantName(v) << " dot_rows dim=" << dim << " i=" << i;
        EXPECT_NEAR(l2s[i], ref_l2, 1e-5 * (ref_l2 + 1.0))
            << simd::VariantName(v) << " l2sq_batch dim=" << dim
            << " i=" << i;
      }
    }
  }
}

TEST(SimdKernels, NearlyUnitNormAcceptsUnitRejectsOthers) {
  Rng rng(13);
  Vector v(128);
  for (auto& x : v) x = static_cast<float>(rng.Normal());
  Normalize(v);
  EXPECT_TRUE(NearlyUnitNorm(v));
  ScaleInPlace(v, 2.0f);
  EXPECT_FALSE(NearlyUnitNorm(v));
  const Vector zero(128, 0.0f);
  EXPECT_FALSE(NearlyUnitNorm(zero));
}

// ---------------------------------------------------------------------------
// Quantized scan tier (DESIGN.md §13): int8 row encoding and kernels.

TEST(QuantizeRowI8, BoundsScaleAndZeroRow) {
  Rng rng(23);
  Vector v(97);
  for (auto& x : v) x = static_cast<float>(rng.Normal());
  std::vector<std::int8_t> q(v.size());
  const float scale = simd::QuantizeRowI8(v, q.data());
  float amax = 0.0f;
  for (const float x : v) amax = std::max(amax, std::abs(x));
  EXPECT_FLOAT_EQ(scale, amax / 127.0f);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_GE(q[i], -127);
    EXPECT_LE(q[i], 127);
    // Symmetric quantization reconstruction error is at most scale/2.
    EXPECT_NEAR(scale * static_cast<float>(q[i]), v[i], scale * 0.5f + 1e-7f);
  }
  const Vector zero(16, 0.0f);
  std::vector<std::int8_t> qz(16, 42);
  EXPECT_EQ(simd::QuantizeRowI8(zero, qz.data()), 0.0f);
  for (const auto b : qz) EXPECT_EQ(b, 0);
}

// int8 kernels accumulate the integer dot exactly, so every variant must
// return BIT-IDENTICAL floats, not merely close ones.  The dims cover the
// AVX2 kernel's 32-byte steps, its 16-byte remainder (48, 83) and the
// scalar tail.  Besides random rows, each dim scores rows and a query
// made of +-127 entries: their adjacent-pair sums reach +-2*127*127, the
// largest i16 value the sign+maddubs form ever produces.
TEST(SimdKernels, I8KernelsBitIdenticalAcrossVariants) {
  Rng rng(29);
  const auto& scalar = simd::KernelsFor(simd::Variant::kScalar);
  const auto variants = simd::SupportedVariants();
  for (const std::size_t dim :
       {std::size_t{3}, std::size_t{31}, std::size_t{48}, std::size_t{64},
        std::size_t{83}, std::size_t{257}, std::size_t{768}}) {
    const std::size_t n = 23;
    const std::size_t stride = (dim + 63) / 64 * 64;  // slab i8 stride
    std::vector<std::int8_t> rows(n * stride);
    std::vector<float> scales(n);
    Vector fp_row(dim);
    for (std::size_t i = 0; i < n; ++i) {
      for (auto& x : fp_row) x = static_cast<float>(rng.Normal());
      scales[i] = simd::QuantizeRowI8(fp_row, rows.data() + i * stride);
    }
    // Extreme rows 0-3 against the extreme query: equal to it, its
    // negation, all +127 and all -127.
    std::vector<std::int8_t> extreme(dim);
    for (std::size_t k = 0; k < dim; ++k) {
      extreme[k] = (k / 2) % 3 == 1 ? -127 : 127;
    }
    for (std::size_t k = 0; k < dim; ++k) {
      rows[k] = extreme[k];
      rows[stride + k] = static_cast<std::int8_t>(-extreme[k]);
      rows[2 * stride + k] = 127;
      rows[3 * stride + k] = -127;
    }
    std::fill(scales.begin(), scales.begin() + 4, 1.0f / 127.0f);

    Vector query(dim);
    for (auto& x : query) x = static_cast<float>(rng.Normal());
    std::vector<std::int8_t> random_q8(dim);
    const float random_scale = simd::QuantizeRowI8(query, random_q8.data());

    std::vector<const std::int8_t*> ptrs(n);
    for (std::size_t i = 0; i < n; ++i) ptrs[i] = rows.data() + i * stride;
    std::reverse(ptrs.begin(), ptrs.end());
    std::vector<float> rev_scales(scales.rbegin(), scales.rend());
    for (const auto& [q8, q_scale] :
         {std::pair{random_q8, random_scale},
          std::pair{extreme, 1.0f / 127.0f}}) {
      std::vector<float> ref_rows(n);
      scalar.dot_rows_i8(q8.data(), q_scale, ptrs.data(), rev_scales.data(),
                         n, dim, ref_rows.data());
      if (q8 == extreme) {
        // The reference itself is exact: +-127*127 per element.  The
        // pointers are reversed, so rows 0 and 1 are the last two.
        const float unit = (q_scale * scales[0]) *
                           static_cast<float>(127 * 127 * static_cast<int>(dim));
        EXPECT_EQ(ref_rows[n - 1], unit) << "dim=" << dim;
        EXPECT_EQ(ref_rows[n - 2], -unit) << "dim=" << dim;
      }
      for (const auto v : variants) {
        std::vector<float> got_rows(n);
        simd::KernelsFor(v).dot_rows_i8(q8.data(), q_scale, ptrs.data(),
                                        rev_scales.data(), n, dim,
                                        got_rows.data());
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(got_rows[i], ref_rows[i])
              << simd::VariantName(v) << " dot_rows_i8 dim=" << dim
              << " i=" << i;
        }
      }
    }
  }
}

// The exact rerank must equal the scalar double kernel bit for bit: the
// snapshot probe's parity with the flat oracle rests on it.  Row counts
// cover the four-row chains and their tail.
TEST(SimdKernels, ExactDotRowsMatchScalarDotBitForBit) {
  Rng rng(31);
  const auto& scalar = simd::KernelsFor(simd::Variant::kScalar);
  for (const std::size_t dim : {std::size_t{1}, std::size_t{7},
                                std::size_t{256}, std::size_t{257}}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{4}, std::size_t{11}}) {
      std::vector<Vector> rows(n, Vector(dim));
      for (auto& row : rows) {
        for (auto& x : row) x = static_cast<float>(rng.Normal());
      }
      Vector query(dim);
      for (auto& x : query) x = static_cast<float>(rng.Normal());
      std::vector<const float*> ptrs(n);
      for (std::size_t i = 0; i < n; ++i) ptrs[i] = rows[n - 1 - i].data();
      std::vector<double> got(n, -1.0);
      simd::ExactDotRows(query.data(), ptrs.data(), n, dim, got.data());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got[i], scalar.dot(query.data(), ptrs[i], dim))
            << "dim=" << dim << " n=" << n << " i=" << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// VectorSlab row formats.

TEST(VectorSlabFormats, EncodesDecodesAndReportsRowBytes) {
  Rng rng(37);
  const std::size_t dim = 70;
  Vector v(dim);
  for (auto& x : v) x = static_cast<float>(rng.Normal());
  Normalize(v);

  VectorSlab f32(dim, RowFormat::kF32);
  VectorSlab i8(dim, RowFormat::kI8);
  const auto r32 = f32.Add(v);
  const auto r8 = i8.Add(v);

  Vector d(dim);
  f32.DecodeRow(r32, d);
  EXPECT_EQ(d, v);  // fp32 storage is lossless
  i8.DecodeRow(r8, d);
  const float scale = i8.RowScale(r8);
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(d[i], v[i], scale * 0.5f + 1e-7f);
  }

  // The scan-tier bandwidth win the bench reports: int8 rows must be at
  // least 3x smaller than fp32 (dim 70: 280 vs 70+4 bytes).
  EXPECT_EQ(f32.row_bytes(), dim * 4);
  EXPECT_EQ(i8.row_bytes(), dim + sizeof(float));
  EXPECT_GE(static_cast<double>(f32.row_bytes()) /
                static_cast<double>(i8.row_bytes()),
            3.0);

  // Rows stay 64-byte aligned in both formats.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(f32.Row(r32)) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(i8.RowI8(r8)) % 64, 0u);
}

TEST(VectorSlabFormats, FreeListReuseKeepsScalesPerSlot) {
  const std::size_t dim = 8;
  VectorSlab slab(dim, RowFormat::kI8);
  const Vector small(dim, 0.125f);
  const Vector big(dim, 100.0f);
  const auto r0 = slab.Add(small);
  const auto r1 = slab.Add(big);
  EXPECT_NE(slab.RowScale(r0), slab.RowScale(r1));
  slab.Free(r0);
  const auto r2 = slab.Add(big);  // reuses r0's slot
  EXPECT_EQ(r2, r0);
  EXPECT_FLOAT_EQ(slab.RowScale(r2), 100.0f / 127.0f);
  EXPECT_EQ(slab.size(), 2u);
}

// ---------------------------------------------------------------------------
// The two-phase rerank contract (DESIGN.md §13): a quantized scan feeding
// a pool into the fp32 scalar rerank must produce top-k ids AND exact
// similarities identical to a full-precision scan, for every compiled
// variant and both row formats.  This is the property the serving tier's
// lock-free probe relies on.

TEST(QuantizedScanProperty, ScanPlusRerankMatchesF32TopKAcrossVariants) {
  Rng rng(41);
  const std::size_t dim = 96;
  const std::size_t n = 400;
  const std::size_t top_k = 6;
  const double tau = 0.55;
  const double slack = 0.02;

  // A query plus rows at graded distances from it, so similarities spread
  // across [0, 1] and several land near the tau boundary.
  Vector query(dim);
  for (auto& x : query) x = static_cast<float>(rng.Normal());
  Normalize(query);
  std::vector<Vector> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    const float sigma =
        0.05f + 2.0f * static_cast<float>(i) / static_cast<float>(n);
    Vector v(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      v[j] = query[j] + sigma * static_cast<float>(rng.Normal());
    }
    Normalize(v);
    rows[i] = std::move(v);
  }

  // Reference: exact double-precision scan over every row.
  const auto& scalar = simd::KernelsFor(simd::Variant::kScalar);
  struct Ref {
    double sim;
    std::size_t id;
  };
  std::vector<Ref> ref;
  for (std::size_t i = 0; i < n; ++i) {
    const double sim = scalar.dot(query.data(), rows[i].data(), dim);
    if (sim >= tau) ref.push_back({sim, i});
  }
  std::sort(ref.begin(), ref.end(), [](const Ref& a, const Ref& b) {
    return a.sim != b.sim ? a.sim > b.sim : a.id < b.id;
  });
  if (ref.size() > top_k) ref.resize(top_k);
  ASSERT_GE(ref.size(), 3u) << "degenerate fixture: too few candidates";

  for (const auto variant : simd::SupportedVariants()) {
    ScopedVariant forced(variant);
    ASSERT_TRUE(forced.forced());
    for (const RowFormat format : {RowFormat::kF32, RowFormat::kI8}) {
      VectorSlab slab(dim, format);
      std::vector<std::uint32_t> slot(n);
      for (std::size_t i = 0; i < n; ++i) slot[i] = slab.Add(rows[i]);

      // Phase 1: scan in the slab's format via the gather kernels.
      std::vector<float> sims(n);
      if (format == RowFormat::kI8) {
        std::vector<const std::int8_t*> ptrs(n);
        std::vector<float> scales(n);
        for (std::size_t i = 0; i < n; ++i) {
          ptrs[i] = slab.RowI8(slot[i]);
          scales[i] = slab.RowScale(slot[i]);
        }
        std::vector<std::int8_t> q8(dim);
        const float q_scale = simd::QuantizeRowI8(query, q8.data());
        simd::DotRowsI8(q8.data(), q_scale, ptrs.data(), scales.data(), n,
                        dim, sims.data());
      } else {
        std::vector<const float*> ptrs(n);
        for (std::size_t i = 0; i < n; ++i) ptrs[i] = slab.Row(slot[i]);
        simd::DotRows(query, ptrs.data(), n, sims.data());
      }

      // Pool selection at tau minus the quantization slack, then phase 2:
      // exact fp32 rerank (the serving tier's SnapshotScan/Validate
      // pipeline in miniature).
      const double floor = format == RowFormat::kF32 ? tau : tau - slack;
      std::vector<std::size_t> keep;
      for (std::size_t i = 0; i < n; ++i) {
        if (static_cast<double>(sims[i]) >= floor) keep.push_back(i);
      }
      const std::size_t pool =
          std::min(keep.size(), std::max<std::size_t>(4 * top_k, 32));
      std::partial_sort(keep.begin(),
                        keep.begin() + static_cast<std::ptrdiff_t>(pool),
                        keep.end(), [&](std::size_t a, std::size_t b) {
                          return sims[a] != sims[b] ? sims[a] > sims[b]
                                                    : a < b;
                        });
      keep.resize(pool);
      std::vector<Ref> got;
      for (const std::size_t i : keep) {
        const double sim = scalar.dot(query.data(), rows[i].data(), dim);
        if (sim >= tau) got.push_back({sim, i});
      }
      std::sort(got.begin(), got.end(), [](const Ref& a, const Ref& b) {
        return a.sim != b.sim ? a.sim > b.sim : a.id < b.id;
      });
      if (got.size() > top_k) got.resize(top_k);

      ASSERT_EQ(got.size(), ref.size())
          << simd::VariantName(variant) << "/" << RowFormatName(format);
      for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(got[i].id, ref[i].id)
            << simd::VariantName(variant) << "/" << RowFormatName(format)
            << " rank " << i;
        // Exact similarities, not merely close: the rerank reads fp32
        // originals with the scalar double kernel in both paths.
        EXPECT_EQ(got[i].sim, ref[i].sim)
            << simd::VariantName(variant) << "/" << RowFormatName(format)
            << " rank " << i;
      }
    }
  }
}

}  // namespace
}  // namespace cortex
