#include "ann/exact_rerank.h"

#include "embedding/simd_kernels.h"

namespace cortex {

std::vector<SearchResult> ExactRerank(std::span<const float> query,
                                      std::vector<ScanHit> hits,
                                      std::size_t pool, std::size_t k,
                                      double min_similarity) {
  pool = std::min(pool, hits.size());
  std::partial_sort(hits.begin(),
                    hits.begin() + static_cast<std::ptrdiff_t>(pool),
                    hits.end(), [](const ScanHit& a, const ScanHit& b) {
                      return a.score != b.score ? a.score > b.score
                                                : a.id < b.id;
                    });
  std::vector<const float*> rows(pool);
  for (std::size_t i = 0; i < pool; ++i) rows[i] = hits[i].row;
  std::vector<double> exact(pool);
  simd::ExactDotRows(query.data(), rows.data(), pool, query.size(),
                     exact.data());
  std::vector<SearchResult> results;
  results.reserve(pool);
  for (std::size_t i = 0; i < pool; ++i) {
    if (exact[i] >= min_similarity) results.push_back({hits[i].id, exact[i]});
  }
  std::sort(results.begin(), results.end(),
            [](const SearchResult& a, const SearchResult& b) {
              return a.similarity != b.similarity
                         ? a.similarity > b.similarity
                         : a.id < b.id;
            });
  results.resize(std::min(k, results.size()));
  return results;
}

}  // namespace cortex
