// SIMD distance-kernel layer with runtime CPU dispatch.
//
// Every semantic-cache lookup funnels through Sine's stage-one ANN probe,
// so per-candidate similarity cost is the hottest multiplier in the serving
// path.  This layer provides the vectorized kernels FAISS supplies in the
// paper's stack.  A KernelSet has seven slots: single-query dot /
// squared-L2, three f32 *batched* kernels that score one query against N
// rows per call with register blocking and software prefetch (the Flat,
// IVF and HNSW scans), the int8 gather kernel over row pointers, and the
// int8 column kernel of the snapshot scan, which reads a dimension-major
// block only at the query's nonzero codes.  The exact fp32
// rerank every index and the snapshot probe share is ExactDotRows, which is
// variant-independent and so lives outside the table.
//
// Dispatch: the best variant compiled into the binary AND supported by the
// running CPU is resolved once on first use (AVX2+FMA on x86-64, NEON on
// aarch64, scalar everywhere).  There is deliberately no wider x86 table:
// bench_vector_ops measured a 16-lane int8 kernel slower than the AVX2 one
// at every dim (DESIGN.md §9.1).  The CORTEX_SIMD env var
// (scalar|avx2|neon) pins a variant for testing and A/B runs; tests may
// also swap variants in-process via ForceVariant().
//
// Numerics: the scalar kernels accumulate in double and are bit-identical
// to the historical vector_ops loops, so CORTEX_SIMD=scalar reproduces
// pre-SIMD results exactly.  SIMD variants accumulate in float lanes and
// agree with scalar to ~1e-6 relative (test_vector_ops locks this in).
//
// This is the ONLY place in the tree allowed to include <immintrin.h> /
// <arm_neon.h> (enforced by scripts/cortex_lint.py rule `simd-intrinsics`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace cortex::simd {

enum class Variant : std::uint8_t {
  kScalar = 0,
  kAvx2 = 1,  // AVX2 + FMA, x86-64
  kNeon = 2,  // aarch64
};

const char* VariantName(Variant v) noexcept;

// Rows in one dimension-major int8 block (the dot_cols_i8 operand): code d
// of row r sits at codes[d * kI8BlockRows + r], so one column is 32
// contiguous bytes, a single AVX2 load.
inline constexpr std::size_t kI8BlockRows = 32;

// Raw kernel table.  `stride` is the float distance between consecutive
// rows (>= dim; slab rows are padded for alignment); every kernel reads
// exactly `dim` floats per row — padding is never touched.
struct KernelSet {
  double (*dot)(const float* a, const float* b, std::size_t dim);
  double (*l2sq)(const float* a, const float* b, std::size_t dim);
  // out[i] = dot(query, rows + i*stride) for i in [0, n).
  void (*dot_batch)(const float* query, const float* rows, std::size_t n,
                    std::size_t stride, std::size_t dim, float* out);
  // out[i] = dot(query, rows[i]); rows scattered (slab/graph gather path),
  // with software prefetch of upcoming rows.
  void (*dot_rows)(const float* query, const float* const* rows,
                   std::size_t n, std::size_t dim, float* out);
  // out[i] = ||query - (rows + i*stride)||^2.
  void (*l2sq_batch)(const float* query, const float* rows, std::size_t n,
                     std::size_t stride, std::size_t dim, float* out);

  // Quantized scan-tier kernel (DESIGN.md §13): out[i] = (query_scale *
  // scales[i]) * dot(query, rows[i]), the dot taken in int32.  int8 rows use symmetric per-row scales (row =
  // scale * q[0..dim)); the query is pre-quantized once per probe with
  // QuantizeRowI8.  Every entry must lie in [-127, 127], as QuantizeRowI8
  // guarantees: the AVX2 kernel's i16 pair sums rely on it.  The integer
  // dot is exact (i32 accumulation, no overflow below dim ~1.3e5), so int8
  // scores are bit-identical across every variant.
  void (*dot_rows_i8)(const std::int8_t* query, float query_scale,
                      const std::int8_t* const* rows, const float* scales,
                      std::size_t n, std::size_t dim, float* out);
  // The same scores over one dimension-major block of kI8BlockRows rows,
  // reading only the query's nonzero codes.  The query arrives as `pairs`
  // pairs of (dimension, code): cols[2p], cols[2p+1] index columns and
  // weights[2p], weights[2p+1] are the query codes there; an odd nonzero
  // count is padded with a zero weight.  out[r] for every r in
  // [0, kI8BlockRows) equals dot_rows_i8's score of row r bit for bit: a
  // zero query code adds nothing to the exact i32 sum.  `next`, when not
  // null, is the block scanned after this one; its query columns are
  // prefetched.
  void (*dot_cols_i8)(const std::uint32_t* cols, const std::int16_t* weights,
                      std::size_t pairs, const std::int8_t* codes,
                      const std::int8_t* next, float query_scale,
                      const float* scales, float* out);
};

// ---------------------------------------------------------------------------
// Quantized row encoding.  Encoding is ALWAYS software-scalar so stored
// bytes are identical whatever variant is active.

// Symmetric per-row int8 quantization: out[i] = round(v[i] * 127 / amax),
// clamped to [-127, 127]; returns the scale (amax / 127, or 0 for an
// all-zero row — the dot of a zero-scale row is exactly 0).
float QuantizeRowI8(std::span<const float> v, std::int8_t* out) noexcept;

// The dot_cols_i8 operands of a quantized query: the dimensions of its
// nonzero codes in `cols` and the codes in `weights`, padded to an even
// count with a zero weight.  Returns the pair count.
std::size_t NonzeroPairsI8(std::span<const std::int8_t> q8,
                           std::vector<std::uint32_t>& cols,
                           std::vector<std::int16_t>& weights);

// Exact rerank: out[i] = KernelsFor(Variant::kScalar).dot(query, rows[i],
// dim) bit for bit — each row accumulates in double in index order, the
// same operations in the same order.  Rows run four at a time as
// independent chains, so their adds overlap instead of waiting on one
// another, and every row is prefetched first: rerank rows are scattered
// and usually cold.  Variant-independent, like the scalar table.
void ExactDotRows(const float* query, const float* const* rows,
                  std::size_t n, std::size_t dim, double* out) noexcept;

// True when `v` is both compiled into this binary and runnable on this CPU.
bool VariantSupported(Variant v) noexcept;
// All supported variants, scalar first.
std::vector<Variant> SupportedVariants();
// The fastest supported variant.
Variant BestSupportedVariant() noexcept;

// The active dispatch decision: BestSupportedVariant() unless CORTEX_SIMD
// pins one.  Resolved once on first use; CHECK-fails on an unknown or
// unsupported CORTEX_SIMD value.
Variant ActiveVariant() noexcept;
const KernelSet& ActiveKernels() noexcept;

// Kernel table for a specific variant; CHECK-fails unless supported.
const KernelSet& KernelsFor(Variant v);

// Test/bench hook: swaps the active table in-process.  Returns false (and
// changes nothing) when the variant is unsupported.  Not thread-safe —
// call only while no concurrent searches run.
bool ForceVariant(Variant v) noexcept;

// ---------------------------------------------------------------------------
// Dispatching convenience wrappers (the names the rest of the tree uses).

// Inner product.  On the unit vectors the VectorIndex contract guarantees,
// this IS the cosine similarity — callers must not renormalize.
inline double DotUnit(std::span<const float> a,
                      std::span<const float> b) noexcept {
  return ActiveKernels().dot(a.data(), b.data(), a.size());
}

inline double L2Sq(std::span<const float> a,
                   std::span<const float> b) noexcept {
  return ActiveKernels().l2sq(a.data(), b.data(), a.size());
}

// Scores `query` against n contiguous rows (row i at rows + i*dim).
inline void DotBatch(std::span<const float> query, const float* rows,
                     std::size_t n, std::size_t dim, float* out) noexcept {
  ActiveKernels().dot_batch(query.data(), rows, n, dim, dim, out);
}

// Gather flavour: row pointers, e.g. HNSW neighbour expansion.
inline void DotRows(std::span<const float> query, const float* const* rows,
                    std::size_t n, float* out) noexcept {
  ActiveKernels().dot_rows(query.data(), rows, n, query.size(), out);
}

inline void L2SqBatch(std::span<const float> query, const float* rows,
                      std::size_t n, std::size_t stride, float* out) noexcept {
  ActiveKernels().l2sq_batch(query.data(), rows, n, stride, query.size(),
                             out);
}

// Quantized flavour; `query_i8`/`query_scale` come from one QuantizeRowI8
// call per probe.
inline void DotRowsI8(const std::int8_t* query_i8, float query_scale,
                      const std::int8_t* const* rows, const float* scales,
                      std::size_t n, std::size_t dim, float* out) noexcept {
  ActiveKernels().dot_rows_i8(query_i8, query_scale, rows, scales, n, dim,
                              out);
}

// Column flavour over one dimension-major block (see KernelSet).
inline void DotColsI8(const std::uint32_t* cols, const std::int16_t* weights,
                      std::size_t pairs, const std::int8_t* codes,
                      const std::int8_t* next, float query_scale,
                      const float* scales, float* out) noexcept {
  ActiveKernels().dot_cols_i8(cols, weights, pairs, codes, next, query_scale,
                              scales, out);
}

}  // namespace cortex::simd
