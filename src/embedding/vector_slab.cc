#include "embedding/vector_slab.h"

#include <cstdlib>
#include <cstring>

#include "embedding/simd_kernels.h"
#include "util/check.h"

namespace cortex {

const char* RowFormatName(RowFormat f) noexcept {
  switch (f) {
    case RowFormat::kF32:
      return "f32";
    case RowFormat::kI8:
      return "i8";
  }
  return "unknown";
}

std::size_t RowFormatElemBytes(RowFormat f) noexcept {
  switch (f) {
    case RowFormat::kF32:
      return sizeof(float);
    case RowFormat::kI8:
      return sizeof(std::int8_t);
  }
  return sizeof(float);
}

void VectorSlab::AlignedFree::operator()(std::byte* p) const noexcept {
  std::free(p);
}

VectorSlab::VectorSlab(std::size_t dim, RowFormat format)
    : dim_(dim), format_(format), elem_bytes_(RowFormatElemBytes(format)) {
  CHECK_GT(dim, 0u);
  // Pad rows to a 64-byte boundary whatever the element width (16 floats
  // or 64 int8 lanes per 64-byte line).
  const std::size_t elems_per_line = 64 / elem_bytes_;
  stride_ = (dim + elems_per_line - 1) / elems_per_line * elems_per_line;
}

std::uint32_t VectorSlab::Add(std::span<const float> v) {
  DCHECK_EQ(v.size(), dim_);
  std::uint32_t row;
  if (!free_.empty()) {
    row = free_.back();
    free_.pop_back();
  } else {
    row = next_row_++;
    if (row / kRowsPerChunk == chunks_.size()) {
      const std::size_t bytes = kRowsPerChunk * stride_ * elem_bytes_;
      // aligned_alloc requires size % alignment == 0; stride covers whole
      // 64-byte lines, so bytes is a multiple of 64.
      auto* mem = static_cast<std::byte*>(std::aligned_alloc(64, bytes));
      CHECK(mem != nullptr) << "VectorSlab chunk allocation failed";
      std::memset(mem, 0, bytes);  // padding lanes stay deterministic
      chunks_.emplace_back(mem);
    }
    if (format_ == RowFormat::kI8 && scales_.size() < next_row_) {
      scales_.resize(next_row_, 0.0f);
    }
  }
  Overwrite(row, v);
  ++live_;
  return row;
}

void VectorSlab::Overwrite(std::uint32_t row, std::span<const float> v) {
  DCHECK_EQ(v.size(), dim_);
  DCHECK_LT(row, next_row_);
  std::byte* dst = MutableRawRow(row);
  switch (format_) {
    case RowFormat::kF32:
      std::memcpy(dst, v.data(), dim_ * sizeof(float));
      break;
    case RowFormat::kI8:
      scales_[row] =
          simd::QuantizeRowI8(v, reinterpret_cast<std::int8_t*>(dst));
      break;
  }
}

void VectorSlab::Free(std::uint32_t row) {
  DCHECK_LT(row, next_row_);
  DCHECK_GT(live_, 0u);
  free_.push_back(row);
  --live_;
}

void VectorSlab::Clear() {
  chunks_.clear();
  free_.clear();
  scales_.clear();
  next_row_ = 0;
  live_ = 0;
}

void VectorSlab::DecodeRow(std::uint32_t row, std::span<float> out) const {
  DCHECK_EQ(out.size(), dim_);
  switch (format_) {
    case RowFormat::kF32:
      std::memcpy(out.data(), Row(row), dim_ * sizeof(float));
      break;
    case RowFormat::kI8: {
      const std::int8_t* q = RowI8(row);
      const float scale = scales_[row];
      for (std::size_t i = 0; i < dim_; ++i) {
        out[i] = scale * static_cast<float>(q[i]);
      }
      break;
    }
  }
}

}  // namespace cortex
