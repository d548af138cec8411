// VectorSlab: a chunked arena of 64-byte-aligned, fixed-dimension vector
// rows with stable row slots and a free list.
//
// The ANN indexes used to hold one heap-allocated std::vector<float> per
// entry, so neighbour expansion chased a pointer per candidate.  A slab
// keeps rows contiguous (within a chunk) and aligned, which is what the
// batched SIMD kernels (embedding/simd_kernels.h) want to stream.
//
// Row slots are stable for the life of the entry: chunks never move once
// allocated, so row pointers stay valid across Add/Free of other rows
// (required by HNSW, whose graph stores slots).
//
// Row storage format (DESIGN.md §13): callers always Add/Overwrite fp32
// spans; the slab encodes per its RowFormat —
//   * kF32 — 4 bytes/elem, the default; Row()/RowSpan() expose floats;
//   * kI8  — symmetric per-row int8 (scale = amax/127), 1 byte/elem plus
//     one float scale per row, ~4x less scan bandwidth than fp32.
// The i8 tier is for SCANNING; exact reranks read fp32 originals kept
// elsewhere (the two-phase contract in ann/ and serve/).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/check.h"

namespace cortex {

enum class RowFormat : std::uint8_t {
  kF32 = 0,
  kI8 = 1,
};

const char* RowFormatName(RowFormat f) noexcept;
// Bytes per stored element (4 / 1).
std::size_t RowFormatElemBytes(RowFormat f) noexcept;

class VectorSlab {
 public:
  explicit VectorSlab(std::size_t dim, RowFormat format = RowFormat::kF32);

  VectorSlab(VectorSlab&&) noexcept = default;
  VectorSlab& operator=(VectorSlab&&) noexcept = default;

  // Encodes `v` (size dim, fp32) into a free row and returns its slot.
  std::uint32_t Add(std::span<const float> v);
  // Replaces the contents of an allocated row.
  void Overwrite(std::uint32_t row, std::span<const float> v);
  // Returns the row to the free list (contents become stale; the slot may
  // be handed out again by a later Add).
  void Free(std::uint32_t row);
  // Drops every row and chunk.
  void Clear();

  // fp32 accessors — kF32 slabs only (DCHECKed).
  const float* Row(std::uint32_t row) const noexcept {
    DCHECK(format_ == RowFormat::kF32);
    return reinterpret_cast<const float*>(RawRow(row));
  }
  std::span<const float> RowSpan(std::uint32_t row) const noexcept {
    return {Row(row), dim_};
  }

  // Raw accessor for the i8 scan kernels.
  const std::int8_t* RowI8(std::uint32_t row) const noexcept {
    return reinterpret_cast<const std::int8_t*>(RawRow(row));
  }
  // Per-row quantization scale; 1.0 for kF32.
  float RowScale(std::uint32_t row) const noexcept {
    return format_ == RowFormat::kI8 ? scales_[row] : 1.0f;
  }
  // Decodes either format back to fp32 (tests, diagnostics).
  void DecodeRow(std::uint32_t row, std::span<float> out) const;

  RowFormat format() const noexcept { return format_; }
  std::size_t dim() const noexcept { return dim_; }
  // Elements between consecutive rows of a chunk (dim padded so every row
  // starts on a 64-byte boundary).
  std::size_t stride() const noexcept { return stride_; }
  // Payload bytes one row costs in this format, including the i8 scale —
  // the scan-tier bytes/vector number the benches report.
  std::size_t row_bytes() const noexcept {
    return dim_ * RowFormatElemBytes(format_) +
           (format_ == RowFormat::kI8 ? sizeof(float) : 0);
  }
  // Rows currently allocated (Add minus Free).
  std::size_t size() const noexcept { return live_; }

 private:
  static constexpr std::size_t kRowsPerChunk = 256;

  struct AlignedFree {
    void operator()(std::byte* p) const noexcept;
  };

  const std::byte* RawRow(std::uint32_t row) const noexcept {
    return chunks_[row / kRowsPerChunk].get() +
           static_cast<std::size_t>(row % kRowsPerChunk) * stride_ *
               elem_bytes_;
  }
  std::byte* MutableRawRow(std::uint32_t row) noexcept {
    return const_cast<std::byte*>(RawRow(row));
  }

  std::size_t dim_;
  RowFormat format_;
  std::size_t elem_bytes_;
  std::size_t stride_;
  std::vector<std::unique_ptr<std::byte[], AlignedFree>> chunks_;
  std::vector<std::uint32_t> free_;
  // Per-row i8 scales, indexed by slot (empty for other formats).
  std::vector<float> scales_;
  std::uint32_t next_row_ = 0;
  std::size_t live_ = 0;
};

}  // namespace cortex
