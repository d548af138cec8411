// VectorIndex: approximate-nearest-neighbour search over unit vectors.
//
// This is Cortex's stand-in for FAISS.  Unlike a retrieval-only index, a
// cache front-end must support online mutation, so every implementation
// provides Add *and* Remove (eviction deletes keys).  All indexes score by
// cosine similarity; inputs are expected to be L2-normalised (the Embedder
// guarantees this), in which case cosine == inner product.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "embedding/vector_ops.h"

namespace cortex {

using VectorId = std::uint64_t;

struct SearchResult {
  VectorId id = 0;
  // Cosine similarity to the query, in [-1, 1].
  double similarity = 0.0;

  friend bool operator==(const SearchResult&, const SearchResult&) = default;
};

class VectorIndex {
 public:
  virtual ~VectorIndex() = default;

  // Inserts (id, vector).  Ids must be unique; re-adding an existing id
  // replaces its vector.  The vector is copied.
  virtual void Add(VectorId id, std::span<const float> vector) = 0;

  // Removes the id; returns false if absent.
  virtual bool Remove(VectorId id) = 0;

  // Top-k ids by cosine similarity, filtered to similarity >= min_similarity,
  // sorted by descending similarity.  k == 0 returns empty.
  virtual std::vector<SearchResult> Search(std::span<const float> query,
                                           std::size_t k,
                                           double min_similarity) const = 0;

  virtual bool Contains(VectorId id) const = 0;
  virtual std::optional<Vector> Get(VectorId id) const = 0;
  virtual std::size_t size() const = 0;
  virtual std::size_t dimension() const = 0;

  // Approximate count of vector-distance computations performed so far;
  // benches use this to compare Flat vs IVF vs HNSW work.
  virtual std::uint64_t distance_computations() const = 0;
};

}  // namespace cortex
