#include "embedding/simd_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "util/check.h"

// The one sanctioned home for CPU intrinsics (cortex_lint: simd-intrinsics).
#if (defined(__x86_64__) || defined(__amd64__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define CORTEX_SIMD_HAVE_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define CORTEX_SIMD_HAVE_NEON 1
#include <arm_neon.h>
#endif

// The scalar int8 kernels are reference rows in bench_vector_ops, so their
// code must not depend on the build type.  GCC 12 auto-vectorizes integer
// reductions at -O3 but not at -O2, so the scalar i8 gather read 2.7-5.5x
// faster than scalar fp32 in Release but 1.0-2.4x in RelWithDebInfo.
// These pin the loops to scalar code in every build.
#if defined(__clang__)
#define CORTEX_SCALAR_CODEGEN
#define CORTEX_NO_VECTORIZE_LOOP \
  _Pragma("clang loop vectorize(disable) interleave(disable)")
#elif defined(__GNUC__)
#define CORTEX_SCALAR_CODEGEN __attribute__((optimize("no-tree-vectorize")))
#define CORTEX_NO_VECTORIZE_LOOP
#else
#define CORTEX_SCALAR_CODEGEN
#define CORTEX_NO_VECTORIZE_LOOP
#endif

namespace cortex::simd {
namespace {

// Prefetch the head of a row (the hardware prefetcher streams the rest of a
// long row once the access pattern is established).
inline void PrefetchBytes(const void* p, std::size_t row_bytes) noexcept {
  const std::size_t bytes = std::min<std::size_t>(row_bytes, std::size_t{256});
  const char* c = static_cast<const char*>(p);
  for (std::size_t off = 0; off < bytes; off += 64) {
    __builtin_prefetch(c + off);
  }
}

inline void PrefetchRow(const float* p, std::size_t dim) noexcept {
  PrefetchBytes(p, dim * sizeof(float));
}

// ---------------------------------------------------------------------------
// Scalar reference kernels.
//
// Bit-identical to the historical vector_ops loops (double accumulation in
// index order), so CORTEX_SIMD=scalar reproduces pre-SIMD results exactly.

double DotScalar(const float* a, const float* b, std::size_t dim) {
  double acc = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return acc;
}

double L2SqScalar(const float* a, const float* b, std::size_t dim) {
  double acc = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += d * d;
  }
  return acc;
}

void DotBatchScalar(const float* query, const float* rows, std::size_t n,
                    std::size_t stride, std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(DotScalar(query, rows + i * stride, dim));
  }
}

void DotRowsScalar(const float* query, const float* const* rows,
                   std::size_t n, std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(DotScalar(query, rows[i], dim));
  }
}

void L2SqBatchScalar(const float* query, const float* rows, std::size_t n,
                     std::size_t stride, std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(L2SqScalar(query, rows + i * stride, dim));
  }
}

// Exact i32 dot of two int8 rows.  q, r in [-127, 127], so each product
// fits 14 bits and the sum stays far below 2^31 for any realistic dim.
CORTEX_SCALAR_CODEGEN inline std::int32_t DotI8SumScalar(
    const std::int8_t* a, const std::int8_t* b, std::size_t dim) noexcept {
  std::int32_t acc = 0;
  CORTEX_NO_VECTORIZE_LOOP
  for (std::size_t i = 0; i < dim; ++i) {
    acc += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  }
  return acc;
}

// The one true descale expression: every variant computes the integer sum
// exactly, then evaluates THIS — so int8 scores are bit-identical.
inline float DescaleI8(float query_scale, float row_scale,
                       std::int32_t sum) noexcept {
  return (query_scale * row_scale) * static_cast<float>(sum);
}

CORTEX_SCALAR_CODEGEN void DotRowsI8Scalar(
    const std::int8_t* query, float query_scale,
    const std::int8_t* const* rows, const float* scales, std::size_t n,
    std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] =
        DescaleI8(query_scale, scales[i], DotI8SumScalar(query, rows[i], dim));
  }
}

// Integer addition is exact and associative, so summing column by column
// gives the gather kernel's i32 sums exactly.
CORTEX_SCALAR_CODEGEN void DotColsI8Scalar(
    const std::uint32_t* cols, const std::int16_t* weights, std::size_t pairs,
    const std::int8_t* codes, const std::int8_t* /*next*/, float query_scale,
    const float* scales, float* out) {
  std::int32_t acc[kI8BlockRows] = {};
  for (std::size_t i = 0; i < 2 * pairs; ++i) {
    const std::int8_t* col = codes + std::size_t{cols[i]} * kI8BlockRows;
    const std::int32_t w = weights[i];
    CORTEX_NO_VECTORIZE_LOOP
    for (std::size_t r = 0; r < kI8BlockRows; ++r) acc[r] += w * col[r];
  }
  for (std::size_t r = 0; r < kI8BlockRows; ++r) {
    out[r] = DescaleI8(query_scale, scales[r], acc[r]);
  }
}

constexpr KernelSet kScalarKernels = {
    DotScalar,       L2SqScalar,      DotBatchScalar, DotRowsScalar,
    L2SqBatchScalar, DotRowsI8Scalar, DotColsI8Scalar,
};

// ---------------------------------------------------------------------------
// AVX2 + FMA (x86-64).  Compiled via function-level target attributes so the
// binary needs no global -mavx2; the bodies execute only after the runtime
// CPU check passes.  Unaligned loads throughout — correctness never depends
// on slab alignment (alignment is a performance property).

#if CORTEX_SIMD_HAVE_X86

#define CORTEX_TARGET_AVX2 __attribute__((target("avx2,fma")))

CORTEX_TARGET_AVX2 inline float HSum8(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  __m128 shuf = _mm_movehdup_ps(lo);
  __m128 sums = _mm_add_ps(lo, shuf);
  shuf = _mm_movehl_ps(shuf, sums);
  sums = _mm_add_ss(sums, shuf);
  return _mm_cvtss_f32(sums);
}

CORTEX_TARGET_AVX2 double DotAvx2(const float* a, const float* b,
                                  std::size_t dim) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= dim; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  float total = HSum8(_mm256_add_ps(acc0, acc1));
  for (; i < dim; ++i) total += a[i] * b[i];
  return static_cast<double>(total);
}

CORTEX_TARGET_AVX2 double L2SqAvx2(const float* a, const float* b,
                                   std::size_t dim) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    const __m256 d0 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(a + i + 8),
                                    _mm256_loadu_ps(b + i + 8));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 8 <= dim; i += 8) {
    const __m256 d =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_fmadd_ps(d, d, acc0);
  }
  float total = HSum8(_mm256_add_ps(acc0, acc1));
  for (; i < dim; ++i) {
    const float d = a[i] - b[i];
    total += d * d;
  }
  return static_cast<double>(total);
}

// 4-row register blocking: one query load feeds four row FMAs, quadrupling
// arithmetic per byte of query traffic.
CORTEX_TARGET_AVX2 void Dot4Avx2(const float* q, const float* r0,
                                 const float* r1, const float* r2,
                                 const float* r3, std::size_t dim,
                                 float* out) {
  __m256 a0 = _mm256_setzero_ps();
  __m256 a1 = _mm256_setzero_ps();
  __m256 a2 = _mm256_setzero_ps();
  __m256 a3 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    const __m256 qv = _mm256_loadu_ps(q + i);
    a0 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(r0 + i), a0);
    a1 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(r1 + i), a1);
    a2 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(r2 + i), a2);
    a3 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(r3 + i), a3);
  }
  float t0 = HSum8(a0), t1 = HSum8(a1), t2 = HSum8(a2), t3 = HSum8(a3);
  for (; i < dim; ++i) {
    const float qq = q[i];
    t0 += qq * r0[i];
    t1 += qq * r1[i];
    t2 += qq * r2[i];
    t3 += qq * r3[i];
  }
  out[0] = t0;
  out[1] = t1;
  out[2] = t2;
  out[3] = t3;
}

void DotBatchAvx2(const float* query, const float* rows, std::size_t n,
                  std::size_t stride, std::size_t dim, float* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if (i + 8 <= n) PrefetchRow(rows + (i + 4) * stride, 4 * stride);
    const float* base = rows + i * stride;
    Dot4Avx2(query, base, base + stride, base + 2 * stride, base + 3 * stride,
             dim, out + i);
  }
  for (; i < n; ++i) {
    out[i] = static_cast<float>(DotAvx2(query, rows + i * stride, dim));
  }
}

void DotRowsAvx2(const float* query, const float* const* rows, std::size_t n,
                 std::size_t dim, float* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (std::size_t p = i + 4; p < std::min(i + 8, n); ++p) {
      PrefetchRow(rows[p], dim);
    }
    Dot4Avx2(query, rows[i], rows[i + 1], rows[i + 2], rows[i + 3], dim,
             out + i);
  }
  for (; i < n; ++i) {
    out[i] = static_cast<float>(DotAvx2(query, rows[i], dim));
  }
}

void L2SqBatchAvx2(const float* query, const float* rows, std::size_t n,
                   std::size_t stride, std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) PrefetchRow(rows + (i + 1) * stride, dim);
    out[i] = static_cast<float>(L2SqAvx2(query, rows + i * stride, dim));
  }
}

CORTEX_TARGET_AVX2 inline std::int32_t HSumI32x8(__m256i v) {
  __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  lo = _mm_add_epi32(lo, hi);
  lo = _mm_add_epi32(lo, _mm_shuffle_epi32(lo, _MM_SHUFFLE(1, 0, 3, 2)));
  lo = _mm_add_epi32(lo, _mm_shuffle_epi32(lo, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(lo);
}

// Integer int8 dot in 32-byte steps without widening either operand:
// VPSIGNB moves the query's sign onto the row (zeroing it where q == 0),
// so VPMADDUBSW can multiply |q| (unsigned) by the signed row and add
// adjacent products into i16 lanes, and VPMADDWD by ones widens the pairs
// into i32.  Entries lie in [-127, 127] (QuantizeRowI8 clamps), so a pair
// sum is at most 2 * 127 * 127 = 32258 and never saturates: the result is
// exact and agrees bit-for-bit with DotI8SumScalar.
CORTEX_TARGET_AVX2 std::int32_t DotI8SumAvx2(const std::int8_t* a,
                                             const std::int8_t* b,
                                             std::size_t dim) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 32 <= dim; i += 32) {
    const __m256i av =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i bv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i pairs =
        _mm256_maddubs_epi16(_mm256_abs_epi8(av), _mm256_sign_epi8(bv, av));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, ones));
  }
  // A 16-byte remainder widens to i16 instead (dims such as 48 or 80).
  if (i + 16 <= dim) {
    const __m256i av = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    const __m256i bv = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(av, bv));
    i += 16;
  }
  std::int32_t sum = HSumI32x8(acc);
  for (; i < dim; ++i) {
    sum += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  }
  return sum;
}

void DotRowsI8Avx2(const std::int8_t* query, float query_scale,
                   const std::int8_t* const* rows, const float* scales,
                   std::size_t n, std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) PrefetchBytes(rows[i + 1], dim);
    out[i] =
        DescaleI8(query_scale, scales[i], DotI8SumAvx2(query, rows[i], dim));
  }
}

// Column kernel: per pair of query dimensions, the two 32-byte columns are
// interleaved byte-wise (row r's pair of codes side by side), widened to
// i16, and one VPMADDWD against the broadcast weight pair adds
// code_a * w_a + code_b * w_b into each row's i32 lane.  A product is at
// most 127 * 127, so the pair sum fits i32 trivially and the result is
// the exact integer dot.  Accumulator k holds rows 8k .. 8k + 7 in order.
CORTEX_TARGET_AVX2 void DotColsI8Avx2(const std::uint32_t* cols,
                                      const std::int16_t* weights,
                                      std::size_t pairs,
                                      const std::int8_t* codes,
                                      const std::int8_t* next,
                                      float query_scale, const float* scales,
                                      float* out) {
  static_assert(kI8BlockRows == 32, "four accumulators of eight rows");
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  __m256i acc2 = _mm256_setzero_si256();
  __m256i acc3 = _mm256_setzero_si256();
  for (std::size_t p = 0; p < pairs; ++p) {
    const std::size_t off_a = std::size_t{cols[2 * p]} * kI8BlockRows;
    const std::size_t off_b = std::size_t{cols[2 * p + 1]} * kI8BlockRows;
    if (next != nullptr) {
      __builtin_prefetch(next + off_a);
      __builtin_prefetch(next + off_b);
    }
    std::int32_t pair_bits;
    std::memcpy(&pair_bits, weights + 2 * p, sizeof(pair_bits));
    const __m256i w = _mm256_set1_epi32(pair_bits);
    const std::int8_t* a = codes + off_a;
    const std::int8_t* b = codes + off_b;
    const __m128i a_lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
    const __m128i b_lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
    const __m128i a_hi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + 16));
    const __m128i b_hi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + 16));
    acc0 = _mm256_add_epi32(
        acc0, _mm256_madd_epi16(
                  _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(a_lo, b_lo)), w));
    acc1 = _mm256_add_epi32(
        acc1, _mm256_madd_epi16(
                  _mm256_cvtepi8_epi16(_mm_unpackhi_epi8(a_lo, b_lo)), w));
    acc2 = _mm256_add_epi32(
        acc2, _mm256_madd_epi16(
                  _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(a_hi, b_hi)), w));
    acc3 = _mm256_add_epi32(
        acc3, _mm256_madd_epi16(
                  _mm256_cvtepi8_epi16(_mm_unpackhi_epi8(a_hi, b_hi)), w));
  }
  // DescaleI8, eight rows at a time: the same two float multiplies in the
  // same order, and i32 -> float rounds to nearest like static_cast.
  const __m256 qs = _mm256_set1_ps(query_scale);
  const __m256i sums[4] = {acc0, acc1, acc2, acc3};
  for (std::size_t k = 0; k < 4; ++k) {
    const __m256 scale = _mm256_mul_ps(qs, _mm256_loadu_ps(scales + 8 * k));
    _mm256_storeu_ps(out + 8 * k,
                     _mm256_mul_ps(scale, _mm256_cvtepi32_ps(sums[k])));
  }
}

constexpr KernelSet kAvx2Kernels = {
    DotAvx2,       L2SqAvx2,      DotBatchAvx2,  DotRowsAvx2,
    L2SqBatchAvx2, DotRowsI8Avx2, DotColsI8Avx2,
};

#endif  // CORTEX_SIMD_HAVE_X86

// ---------------------------------------------------------------------------
// NEON (aarch64): baseline ISA, no runtime feature check needed.

#if CORTEX_SIMD_HAVE_NEON

double DotNeon(const float* a, const float* b, std::size_t dim) {
  float32x4_t acc0 = vdupq_n_f32(0.0f);
  float32x4_t acc1 = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
    acc1 = vfmaq_f32(acc1, vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
  }
  for (; i + 4 <= dim; i += 4) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
  }
  float total = vaddvq_f32(vaddq_f32(acc0, acc1));
  for (; i < dim; ++i) total += a[i] * b[i];
  return static_cast<double>(total);
}

double L2SqNeon(const float* a, const float* b, std::size_t dim) {
  float32x4_t acc = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    const float32x4_t d = vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
    acc = vfmaq_f32(acc, d, d);
  }
  float total = vaddvq_f32(acc);
  for (; i < dim; ++i) {
    const float d = a[i] - b[i];
    total += d * d;
  }
  return static_cast<double>(total);
}

void Dot4Neon(const float* q, const float* r0, const float* r1,
              const float* r2, const float* r3, std::size_t dim, float* out) {
  float32x4_t a0 = vdupq_n_f32(0.0f);
  float32x4_t a1 = vdupq_n_f32(0.0f);
  float32x4_t a2 = vdupq_n_f32(0.0f);
  float32x4_t a3 = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    const float32x4_t qv = vld1q_f32(q + i);
    a0 = vfmaq_f32(a0, qv, vld1q_f32(r0 + i));
    a1 = vfmaq_f32(a1, qv, vld1q_f32(r1 + i));
    a2 = vfmaq_f32(a2, qv, vld1q_f32(r2 + i));
    a3 = vfmaq_f32(a3, qv, vld1q_f32(r3 + i));
  }
  float t0 = vaddvq_f32(a0), t1 = vaddvq_f32(a1);
  float t2 = vaddvq_f32(a2), t3 = vaddvq_f32(a3);
  for (; i < dim; ++i) {
    const float qq = q[i];
    t0 += qq * r0[i];
    t1 += qq * r1[i];
    t2 += qq * r2[i];
    t3 += qq * r3[i];
  }
  out[0] = t0;
  out[1] = t1;
  out[2] = t2;
  out[3] = t3;
}

void DotBatchNeon(const float* query, const float* rows, std::size_t n,
                  std::size_t stride, std::size_t dim, float* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if (i + 8 <= n) PrefetchRow(rows + (i + 4) * stride, 4 * stride);
    const float* base = rows + i * stride;
    Dot4Neon(query, base, base + stride, base + 2 * stride, base + 3 * stride,
             dim, out + i);
  }
  for (; i < n; ++i) {
    out[i] = static_cast<float>(DotNeon(query, rows + i * stride, dim));
  }
}

void DotRowsNeon(const float* query, const float* const* rows, std::size_t n,
                 std::size_t dim, float* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (std::size_t p = i + 4; p < std::min(i + 8, n); ++p) {
      PrefetchRow(rows[p], dim);
    }
    Dot4Neon(query, rows[i], rows[i + 1], rows[i + 2], rows[i + 3], dim,
             out + i);
  }
  for (; i < n; ++i) {
    out[i] = static_cast<float>(DotNeon(query, rows[i], dim));
  }
}

void L2SqBatchNeon(const float* query, const float* rows, std::size_t n,
                   std::size_t stride, std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) PrefetchRow(rows + (i + 1) * stride, dim);
    out[i] = static_cast<float>(L2SqNeon(query, rows + i * stride, dim));
  }
}

// Exact int8 dot: SMULL to i16x8, pairwise-accumulate into i32x4.
std::int32_t DotI8SumNeon(const std::int8_t* a, const std::int8_t* b,
                          std::size_t dim) {
  int32x4_t acc = vdupq_n_s32(0);
  std::size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    const int8x16_t av = vld1q_s8(a + i);
    const int8x16_t bv = vld1q_s8(b + i);
    acc = vpadalq_s16(acc, vmull_s8(vget_low_s8(av), vget_low_s8(bv)));
    acc = vpadalq_s16(acc, vmull_s8(vget_high_s8(av), vget_high_s8(bv)));
  }
  std::int32_t sum = vaddvq_s32(acc);
  for (; i < dim; ++i) {
    sum += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  }
  return sum;
}

void DotRowsI8Neon(const std::int8_t* query, float query_scale,
                   const std::int8_t* const* rows, const float* scales,
                   std::size_t n, std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) PrefetchBytes(rows[i + 1], dim);
    out[i] =
        DescaleI8(query_scale, scales[i], DotI8SumNeon(query, rows[i], dim));
  }
}

// The column kernel has no NEON body: no aarch64 toolchain is at hand to
// test one, so NEON shares the scalar kernel (exact, so still
// bit-identical).
constexpr KernelSet kNeonKernels = {
    DotNeon,       L2SqNeon,      DotBatchNeon,    DotRowsNeon,
    L2SqBatchNeon, DotRowsI8Neon, DotColsI8Scalar,
};

#endif  // CORTEX_SIMD_HAVE_NEON

// ---------------------------------------------------------------------------
// Dispatch.

struct Dispatch {
  Variant variant;
  const KernelSet* kernels;
};

Dispatch ResolveFromEnv() {
  const char* env = std::getenv("CORTEX_SIMD");
  if (env == nullptr || *env == '\0') {
    const Variant best = BestSupportedVariant();
    return {best, &KernelsFor(best)};
  }
  const std::string_view want(env);
  Variant v = Variant::kScalar;
  if (want == "scalar") {
    v = Variant::kScalar;
  } else if (want == "avx2") {
    v = Variant::kAvx2;
  } else if (want == "neon") {
    v = Variant::kNeon;
  } else {
    CHECK(false) << "CORTEX_SIMD='" << want
                 << "' is not one of scalar|avx2|neon";
  }
  CHECK(VariantSupported(v))
      << "CORTEX_SIMD=" << VariantName(v)
      << " requested but not supported on this CPU/build";
  return {v, &KernelsFor(v)};
}

Dispatch& ActiveDispatch() noexcept {
  // Resolved once, on first use; ForceVariant (tests only) may swap it.
  static Dispatch dispatch = ResolveFromEnv();
  return dispatch;
}

}  // namespace

float QuantizeRowI8(std::span<const float> v, std::int8_t* out) noexcept {
  float amax = 0.0f;
  for (const float x : v) amax = std::max(amax, std::fabs(x));
  if (amax == 0.0f) {
    for (std::size_t i = 0; i < v.size(); ++i) out[i] = 0;
    return 0.0f;
  }
  const float inv = 127.0f / amax;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const long q = std::lrintf(v[i] * inv);
    out[i] = static_cast<std::int8_t>(std::clamp<long>(q, -127, 127));
  }
  return amax / 127.0f;
}

std::size_t NonzeroPairsI8(std::span<const std::int8_t> q8,
                           std::vector<std::uint32_t>& cols,
                           std::vector<std::int16_t>& weights) {
  cols.clear();
  weights.clear();
  for (std::size_t d = 0; d < q8.size(); ++d) {
    if (q8[d] != 0) {
      cols.push_back(static_cast<std::uint32_t>(d));
      weights.push_back(q8[d]);
    }
  }
  if (cols.size() % 2 != 0) {
    cols.push_back(cols.back());
    weights.push_back(0);
  }
  return cols.size() / 2;
}

void ExactDotRows(const float* query, const float* const* rows,
                  std::size_t n, std::size_t dim, double* out) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const char* row = reinterpret_cast<const char*>(rows[i]);
    for (std::size_t off = 0; off < dim * sizeof(float); off += 64) {
      __builtin_prefetch(row + off);
    }
  }
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float* const r0 = rows[i];
    const float* const r1 = rows[i + 1];
    const float* const r2 = rows[i + 2];
    const float* const r3 = rows[i + 3];
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    for (std::size_t k = 0; k < dim; ++k) {
      const double q = static_cast<double>(query[k]);
      a0 += q * static_cast<double>(r0[k]);
      a1 += q * static_cast<double>(r1[k]);
      a2 += q * static_cast<double>(r2[k]);
      a3 += q * static_cast<double>(r3[k]);
    }
    out[i] = a0;
    out[i + 1] = a1;
    out[i + 2] = a2;
    out[i + 3] = a3;
  }
  for (; i < n; ++i) out[i] = DotScalar(query, rows[i], dim);
}

const char* VariantName(Variant v) noexcept {
  switch (v) {
    case Variant::kScalar:
      return "scalar";
    case Variant::kAvx2:
      return "avx2";
    case Variant::kNeon:
      return "neon";
  }
  return "unknown";
}

bool VariantSupported(Variant v) noexcept {
  switch (v) {
    case Variant::kScalar:
      return true;
    case Variant::kAvx2:
#if CORTEX_SIMD_HAVE_X86
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Variant::kNeon:
#if CORTEX_SIMD_HAVE_NEON
      return true;
#else
      return false;
#endif
  }
  return false;
}

std::vector<Variant> SupportedVariants() {
  std::vector<Variant> out;
  for (const Variant v : {Variant::kScalar, Variant::kAvx2, Variant::kNeon}) {
    if (VariantSupported(v)) out.push_back(v);
  }
  return out;
}

Variant BestSupportedVariant() noexcept {
  if (VariantSupported(Variant::kAvx2)) return Variant::kAvx2;
  if (VariantSupported(Variant::kNeon)) return Variant::kNeon;
  return Variant::kScalar;
}

const KernelSet& KernelsFor(Variant v) {
  CHECK(VariantSupported(v))
      << "kernel variant " << VariantName(v) << " not supported here";
  switch (v) {
    case Variant::kScalar:
      return kScalarKernels;
#if CORTEX_SIMD_HAVE_X86
    case Variant::kAvx2:
      return kAvx2Kernels;
#endif
#if CORTEX_SIMD_HAVE_NEON
    case Variant::kNeon:
      return kNeonKernels;
#endif
    default:
      return kScalarKernels;
  }
}

Variant ActiveVariant() noexcept { return ActiveDispatch().variant; }

const KernelSet& ActiveKernels() noexcept { return *ActiveDispatch().kernels; }

bool ForceVariant(Variant v) noexcept {
  if (!VariantSupported(v)) return false;
  ActiveDispatch() = {v, &KernelsFor(v)};
  return true;
}

}  // namespace cortex::simd
