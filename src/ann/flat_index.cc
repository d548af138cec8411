#include "ann/flat_index.h"

#include <algorithm>

#include "ann/exact_rerank.h"
#include "embedding/simd_kernels.h"
#include "util/check.h"

namespace cortex {

FlatIndex::FlatIndex(std::size_t dimension) : dimension_(dimension) {
  CHECK_GT(dimension, 0u);
}

void FlatIndex::Add(VectorId id, std::span<const float> vector) {
  CHECK_EQ(vector.size(), dimension_);
  DCHECK(NearlyUnitNorm(vector))
      << "FlatIndex scores by inner product; vectors must be unit-norm";
  const auto it = id_to_slot_.find(id);
  if (it != id_to_slot_.end()) {
    std::copy(vector.begin(), vector.end(),
              data_.begin() + static_cast<std::ptrdiff_t>(it->second *
                                                          dimension_));
    return;
  }
  const std::size_t slot = slot_to_id_.size();
  data_.insert(data_.end(), vector.begin(), vector.end());
  slot_to_id_.push_back(id);
  id_to_slot_.emplace(id, slot);
}

bool FlatIndex::Remove(VectorId id) {
  const auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) return false;
  const std::size_t slot = it->second;
  const std::size_t last = slot_to_id_.size() - 1;
  if (slot != last) {
    std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(last * dimension_),
                dimension_,
                data_.begin() + static_cast<std::ptrdiff_t>(slot * dimension_));
    slot_to_id_[slot] = slot_to_id_[last];
    id_to_slot_[slot_to_id_[slot]] = slot;
  }
  data_.resize(last * dimension_);
  slot_to_id_.pop_back();
  id_to_slot_.erase(it);
  return true;
}

std::vector<SearchResult> FlatIndex::Search(std::span<const float> query,
                                            std::size_t k,
                                            double min_similarity) const {
  CHECK_EQ(query.size(), dimension_);
  if (k == 0 || slot_to_id_.empty()) return {};
  const std::size_t n = slot_to_id_.size();
  // One batched kernel call scans the whole row-major block.  Vectors are
  // unit-norm (DCHECKed on Add), so the inner product IS the cosine — no
  // per-candidate norm recomputation.
  std::vector<float> sims(n);
  simd::DotBatch(query, data_.data(), n, dimension_, sims.data());
  std::vector<ScanHit> hits;
  hits.reserve(n);
  for (std::size_t slot = 0; slot < n; ++slot) {
    if (static_cast<double>(sims[slot]) >= min_similarity) {
      hits.push_back(
          {slot_to_id_[slot], sims[slot], data_.data() + slot * dimension_});
    }
  }
  // The counter tracks scan work (one per candidate scored); the k-bounded
  // rerank is constant overhead and intentionally excluded.
  distcomp_.fetch_add(n, std::memory_order_relaxed);
  return ExactRerank(query, std::move(hits), RerankPool(k), k,
                     min_similarity);
}

bool FlatIndex::Contains(VectorId id) const {
  return id_to_slot_.contains(id);
}

std::optional<Vector> FlatIndex::Get(VectorId id) const {
  const auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) return std::nullopt;
  const auto begin =
      data_.begin() + static_cast<std::ptrdiff_t>(it->second * dimension_);
  return Vector(begin, begin + static_cast<std::ptrdiff_t>(dimension_));
}

}  // namespace cortex
