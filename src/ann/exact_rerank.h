// ExactRerank: the second phase of every index's two-phase ranking.
//
// A scan scores candidates with the active SIMD kernels, whose float
// results differ across variants by about one ulp.  ExactRerank selects a
// pool of the best scan hits, rescores the pool with simd::ExactDotRows
// (bit-identical to the scalar double kernel) and ranks by that exact score
// with ties broken by id.  The reported top-k is therefore the same under
// every variant as long as the pool's slack absorbs the scan's error, and
// every reported similarity is exact.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "ann/vector_index.h"

namespace cortex {

// One scan candidate: its float scan score and its fp32 row, which must
// stay valid until ExactRerank returns.
struct ScanHit {
  VectorId id = 0;
  float score = 0.0f;
  const float* row = nullptr;
};

// The pool Flat and IVF rerank: k plus a slack of max(k, 8).
inline std::size_t RerankPool(std::size_t k) {
  return k + std::max<std::size_t>(k, 8);
}

// Keeps the `pool` best hits by (score desc, id asc), rescores them
// exactly against `query`, drops those below min_similarity and returns at
// most k, sorted by (similarity desc, id asc).
std::vector<SearchResult> ExactRerank(std::span<const float> query,
                                      std::vector<ScanHit> hits,
                                      std::size_t pool, std::size_t k,
                                      double min_similarity);

}  // namespace cortex
