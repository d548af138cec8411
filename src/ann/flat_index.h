// FlatIndex: exact brute-force search.  O(n·d) per query; the recall
// reference point for IVF/HNSW and the default for cache-sized corpora.
#pragma once

#include <atomic>
#include <unordered_map>
#include <vector>

#include "ann/vector_index.h"

namespace cortex {

class FlatIndex final : public VectorIndex {
 public:
  explicit FlatIndex(std::size_t dimension);

  void Add(VectorId id, std::span<const float> vector) override;
  bool Remove(VectorId id) override;
  std::vector<SearchResult> Search(std::span<const float> query,
                                   std::size_t k,
                                   double min_similarity) const override;
  bool Contains(VectorId id) const override;
  std::optional<Vector> Get(VectorId id) const override;
  std::size_t size() const override { return id_to_slot_.size(); }
  std::size_t dimension() const override { return dimension_; }
  std::uint64_t distance_computations() const override {
    return distcomp_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t dimension_;
  // Contiguous storage with swap-erase removal for cache-friendly scans.
  std::vector<float> data_;            // size() * dimension_
  std::vector<VectorId> slot_to_id_;   // slot -> id
  std::unordered_map<VectorId, std::size_t> id_to_slot_;
  // Atomic: const Search() calls may run concurrently, and a stats counter
  // must not be the reason they can't.
  mutable std::atomic<std::uint64_t> distcomp_{0};
};

}  // namespace cortex
