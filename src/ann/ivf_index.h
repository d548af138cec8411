// IvfIndex: inverted-file ANN (FAISS IVF-Flat equivalent).
//
// Vectors are bucketed by their nearest coarse centroid (trained with
// k-means); a query probes only the `nprobe` closest lists.  Until enough
// vectors have accumulated to train the quantiser, the index transparently
// degrades to an exact flat scan — a cache starts empty, so this warm-up
// path matters.  The quantiser is retrained automatically when the corpus
// has grown or churned substantially since the last training.
//
// Storage: vectors live in an aligned VectorSlab (stable row slots,
// free-list reuse on Remove) and inverted lists carry (id, row) pairs, so a
// probe batches whole lists through the SIMD dot kernels without a hash
// lookup per candidate.
#pragma once

#include <atomic>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ann/exact_rerank.h"
#include "ann/kmeans.h"
#include "ann/vector_index.h"
#include "embedding/vector_slab.h"

namespace cortex {

struct IvfOptions {
  std::size_t num_lists = 16;   // coarse centroids (nlist)
  std::size_t num_probes = 4;   // lists scanned per query (nprobe)
  // Train once size reaches max(num_lists * this, 2 * num_lists).
  std::size_t train_points_per_list = 8;
  // Retrain when size deviates from the trained size by this factor.
  double retrain_growth_factor = 2.0;
  std::uint64_t seed = 42;
};

class IvfIndex final : public VectorIndex {
 public:
  IvfIndex(std::size_t dimension, IvfOptions options = {});

  void Add(VectorId id, std::span<const float> vector) override;
  bool Remove(VectorId id) override;
  std::vector<SearchResult> Search(std::span<const float> query,
                                   std::size_t k,
                                   double min_similarity) const override;
  bool Contains(VectorId id) const override;
  std::optional<Vector> Get(VectorId id) const override;
  std::size_t size() const override { return entries_.size(); }
  std::size_t dimension() const override { return dimension_; }
  std::uint64_t distance_computations() const override {
    return distcomp_.load(std::memory_order_relaxed);
  }

  bool is_trained() const noexcept { return trained_; }
  // Forces (re)training on the current contents.  Exposed for tests.
  void Train();

 private:
  struct Entry {
    std::uint32_t row = 0;  // slot in vectors_
    std::size_t list = 0;   // meaningful only when trained_
  };
  struct ListEntry {
    VectorId id = 0;
    std::uint32_t row = 0;
  };

  void MaybeTrain();
  void AssignToList(VectorId id, Entry& e);
  // Scores `candidates` against `query` in one batched kernel call,
  // appending those >= min_similarity to `hits`.
  void ScanList(std::span<const float> query,
                const std::vector<ListEntry>& candidates,
                double min_similarity, std::vector<ScanHit>& hits,
                std::vector<const float*>& row_ptrs,
                std::vector<float>& sims) const;

  std::size_t dimension_;
  IvfOptions options_;
  VectorSlab vectors_;
  std::unordered_map<VectorId, Entry> entries_;
  std::vector<float> centroids_;                 // num_lists * dimension
  std::vector<std::vector<ListEntry>> lists_;    // inverted lists
  bool trained_ = false;
  std::size_t trained_at_size_ = 0;
  // Atomic so concurrent const Search() calls (shared-lock readers in the
  // serving tier) stay race-free; bumped once per Search, not per vector.
  mutable std::atomic<std::uint64_t> distcomp_{0};
};

}  // namespace cortex
