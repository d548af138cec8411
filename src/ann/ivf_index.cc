#include "ann/ivf_index.h"

#include <algorithm>
#include <limits>

#include "embedding/simd_kernels.h"
#include "util/check.h"

namespace cortex {

IvfIndex::IvfIndex(std::size_t dimension, IvfOptions options)
    : dimension_(dimension), options_(options), vectors_(dimension) {
  CHECK_GT(dimension, 0u);
  CHECK_GT(options.num_lists, 0u);
  options_.num_probes = std::min(options_.num_probes, options_.num_lists);
}

void IvfIndex::Add(VectorId id, std::span<const float> vector) {
  CHECK_EQ(vector.size(), dimension_);
  DCHECK(NearlyUnitNorm(vector))
      << "IvfIndex scores by inner product; vectors must be unit-norm";
  auto [it, inserted] = entries_.try_emplace(id);
  if (inserted) {
    it->second.row = vectors_.Add(vector);
  } else {
    vectors_.Overwrite(it->second.row, vector);
    if (trained_) {
      // Replacing: remove from its current list first.
      auto& list = lists_[it->second.list];
      list.erase(std::remove_if(list.begin(), list.end(),
                                [id](const ListEntry& e) { return e.id == id; }),
                 list.end());
    }
  }
  if (trained_) {
    AssignToList(id, it->second);
  }
  MaybeTrain();
}

void IvfIndex::AssignToList(VectorId id, Entry& e) {
  e.list = NearestCentroid(vectors_.RowSpan(e.row), centroids_,
                           options_.num_lists, dimension_);
  lists_[e.list].push_back({id, e.row});
}

bool IvfIndex::Remove(VectorId id) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  if (trained_) {
    auto& list = lists_[it->second.list];
    list.erase(std::remove_if(list.begin(), list.end(),
                              [id](const ListEntry& e) { return e.id == id; }),
               list.end());
  }
  vectors_.Free(it->second.row);
  entries_.erase(it);
  return true;
}

void IvfIndex::MaybeTrain() {
  const std::size_t train_threshold =
      std::max(options_.num_lists * options_.train_points_per_list,
               2 * options_.num_lists);
  if (!trained_) {
    if (entries_.size() >= train_threshold) Train();
    return;
  }
  // Retrain when the corpus drifted far from what the quantiser saw.
  const auto size = entries_.size();
  if (size >= train_threshold &&
      (size > trained_at_size_ * options_.retrain_growth_factor ||
       size * options_.retrain_growth_factor < trained_at_size_)) {
    Train();
  }
}

void IvfIndex::Train() {
  const std::size_t n = entries_.size();
  if (n < options_.num_lists) return;
  std::vector<float> data;
  data.reserve(n * dimension_);
  std::vector<VectorId> ids;
  ids.reserve(n);
  for (const auto& [id, e] : entries_) {
    const auto row = vectors_.RowSpan(e.row);
    data.insert(data.end(), row.begin(), row.end());
    ids.push_back(id);
  }
  KMeansOptions kopts;
  kopts.seed = options_.seed;
  const auto km =
      KMeans(data, n, dimension_, options_.num_lists, kopts);
  centroids_ = km.centroids;
  lists_.assign(options_.num_lists, {});
  for (std::size_t i = 0; i < n; ++i) {
    auto& e = entries_.at(ids[i]);
    e.list = km.assignments[i];
    lists_[e.list].push_back({ids[i], e.row});
  }
  trained_ = true;
  trained_at_size_ = n;
}

void IvfIndex::ScanList(std::span<const float> query,
                        const std::vector<ListEntry>& candidates,
                        double min_similarity, std::vector<ScanHit>& hits,
                        std::vector<const float*>& row_ptrs,
                        std::vector<float>& sims) const {
  const std::size_t n = candidates.size();
  if (n == 0) return;
  row_ptrs.resize(n);
  sims.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    row_ptrs[i] = vectors_.Row(candidates[i].row);
  }
  simd::DotRows(query, row_ptrs.data(), n, sims.data());
  for (std::size_t i = 0; i < n; ++i) {
    if (static_cast<double>(sims[i]) >= min_similarity) {
      hits.push_back({candidates[i].id, sims[i], row_ptrs[i]});
    }
  }
}

std::vector<SearchResult> IvfIndex::Search(std::span<const float> query,
                                           std::size_t k,
                                           double min_similarity) const {
  CHECK_EQ(query.size(), dimension_);
  if (k == 0 || entries_.empty()) return {};

  std::vector<ScanHit> hits;
  std::vector<const float*> row_ptrs;
  std::vector<float> sims;
  std::uint64_t comps = 0;

  if (!trained_) {
    // Warm-up: exact scan, still batched through the kernel layer.
    std::vector<ListEntry> all;
    all.reserve(entries_.size());
    for (const auto& [id, e] : entries_) all.push_back({id, e.row});
    ScanList(query, all, min_similarity, hits, row_ptrs, sims);
    comps += all.size();
  } else {
    // Rank lists by centroid distance (one batched kernel call over the
    // contiguous centroid block), probe the closest nprobe.
    std::vector<float> cdists(options_.num_lists);
    simd::L2SqBatch(query, centroids_.data(), options_.num_lists, dimension_,
                    cdists.data());
    comps += options_.num_lists;
    std::vector<std::pair<double, std::size_t>> ranked;
    ranked.reserve(options_.num_lists);
    for (std::size_t c = 0; c < options_.num_lists; ++c) {
      ranked.emplace_back(static_cast<double>(cdists[c]), c);
    }
    const std::size_t probes = std::min(options_.num_probes, ranked.size());
    std::partial_sort(ranked.begin(),
                      ranked.begin() + static_cast<std::ptrdiff_t>(probes),
                      ranked.end());
    for (std::size_t p = 0; p < probes; ++p) {
      const auto& list = lists_[ranked[p].second];
      ScanList(query, list, min_similarity, hits, row_ptrs, sims);
      comps += list.size();
    }
  }
  // comps tracks scan work only; the k-bounded rerank is excluded.
  distcomp_.fetch_add(comps, std::memory_order_relaxed);
  return ExactRerank(query, std::move(hits), RerankPool(k), k,
                     min_similarity);
}

bool IvfIndex::Contains(VectorId id) const { return entries_.contains(id); }

std::optional<Vector> IvfIndex::Get(VectorId id) const {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return std::nullopt;
  const auto row = vectors_.RowSpan(it->second.row);
  return Vector(row.begin(), row.end());
}

}  // namespace cortex
