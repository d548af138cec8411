#include "ann/hnsw_index.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "ann/exact_rerank.h"
#include "embedding/simd_kernels.h"
#include "embedding/vector_ops.h"
#include "util/check.h"

namespace cortex {

HnswIndex::HnswIndex(std::size_t dimension, HnswOptions options)
    : dimension_(dimension),
      options_(options),
      rng_(options.seed),
      level_lambda_(1.0 / std::log(static_cast<double>(
                              std::max<std::size_t>(options.M, 2)))),
      vectors_(dimension) {
  CHECK_GT(dimension, 0u);
  CHECK_GE(options.M, 2u);
}

double HnswIndex::Sim(std::span<const float> a, Slot b,
                      std::uint64_t& comps) const noexcept {
  ++comps;
  return simd::DotUnit(a, SlotVector(b));
}

void HnswIndex::SimBatch(std::span<const float> query, const Slot* slots,
                         std::size_t n, float* sims,
                         std::uint64_t& comps) const {
  comps += n;
  // Small gather buffer: adjacency lists are capped at 2M links.
  const float* ptrs[64];
  std::size_t done = 0;
  while (done < n) {
    const std::size_t chunk = std::min<std::size_t>(n - done, 64);
    for (std::size_t i = 0; i < chunk; ++i) {
      ptrs[i] = vectors_.Row(nodes_[slots[done + i]].row);
    }
    simd::DotRows(query, ptrs, chunk, sims + done);
    done += chunk;
  }
}

int HnswIndex::RandomLevel() {
  const double u = rng_.NextDouble();
  const int level =
      static_cast<int>(-std::log(std::max(u, 1e-12)) * level_lambda_);
  return std::min(level, 24);  // clamp against pathological draws
}

HnswIndex::Slot HnswIndex::GreedyDescend(std::span<const float> query,
                                         Slot entry, int from_level,
                                         int target_layer,
                                         std::uint64_t& comps) const {
  Slot current = entry;
  double current_sim = Sim(query, current, comps);
  std::vector<float> sims;
  for (int layer = from_level; layer > target_layer; --layer) {
    bool improved = true;
    while (improved) {
      improved = false;
      if (layer >= static_cast<int>(nodes_[current].links.size())) continue;
      const auto& nbs =
          nodes_[current].links[static_cast<std::size_t>(layer)];
      if (nbs.empty()) continue;
      sims.resize(nbs.size());
      SimBatch(query, nbs.data(), nbs.size(), sims.data(), comps);
      for (std::size_t i = 0; i < nbs.size(); ++i) {
        const double s = static_cast<double>(sims[i]);
        if (s > current_sim) {
          current_sim = s;
          current = nbs[i];
          improved = true;
        }
      }
    }
  }
  return current;
}

std::vector<std::pair<HnswIndex::Slot, double>> HnswIndex::SearchLayer(
    std::span<const float> query, Slot entry, std::size_t ef, int layer,
    std::uint64_t& comps) const {
  // Max-heap of candidates to expand; min-heap of current best `ef` results.
  using Scored = std::pair<double, Slot>;
  std::priority_queue<Scored> candidates;  // best-first
  std::priority_queue<Scored, std::vector<Scored>, std::greater<>>
      best;  // worst-first, capped at ef
  std::unordered_set<Slot> visited;

  const double entry_sim = Sim(query, entry, comps);
  candidates.emplace(entry_sim, entry);
  best.emplace(entry_sim, entry);
  visited.insert(entry);

  // Scratch reused across expansions: each expanded node's unvisited
  // neighbours are scored in one batched gather-kernel call.
  std::vector<Slot> fresh;
  std::vector<float> sims;
  while (!candidates.empty()) {
    const auto [sim, slot] = candidates.top();
    candidates.pop();
    if (best.size() >= ef && sim < best.top().first) break;
    if (layer >= static_cast<int>(nodes_[slot].links.size())) continue;
    fresh.clear();
    for (Slot nb : nodes_[slot].links[static_cast<std::size_t>(layer)]) {
      if (visited.insert(nb).second) fresh.push_back(nb);
    }
    if (fresh.empty()) continue;
    sims.resize(fresh.size());
    SimBatch(query, fresh.data(), fresh.size(), sims.data(), comps);
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      const double s = static_cast<double>(sims[i]);
      if (best.size() < ef || s > best.top().first) {
        candidates.emplace(s, fresh[i]);
        best.emplace(s, fresh[i]);
        if (best.size() > ef) best.pop();
      }
    }
  }

  std::vector<std::pair<Slot, double>> out;
  out.reserve(best.size());
  while (!best.empty()) {
    out.emplace_back(best.top().second, best.top().first);
    best.pop();
  }
  std::reverse(out.begin(), out.end());  // best-first
  return out;
}

void HnswIndex::SelectNeighbors(
    std::span<const float> target,
    std::vector<std::pair<Slot, double>>& candidates, std::size_t max_links,
    std::uint64_t& comps) const {
  if (candidates.size() <= max_links) return;
  if (!options_.heuristic_selection) {
    // Simple top-M (candidates arrive best-first from SearchLayer).
    candidates.resize(max_links);
    return;
  }
  // Alg. 4: accept a candidate only if it is closer to the target than to
  // every neighbour already accepted — otherwise it is redundant (the
  // accepted neighbour already routes toward it).
  std::vector<std::pair<Slot, double>> selected;
  selected.reserve(max_links);
  for (const auto& [slot, sim_to_target] : candidates) {
    bool diverse = true;
    for (const auto& [kept, kept_sim] : selected) {
      if (Sim(SlotVector(kept), slot, comps) > sim_to_target) {
        diverse = false;
        break;
      }
    }
    if (diverse) {
      selected.emplace_back(slot, sim_to_target);
      if (selected.size() == max_links) break;
    }
  }
  // Back-fill with the best remaining candidates if diversity pruning left
  // slots unused (keeps connectivity on tiny or degenerate inputs).
  if (selected.size() < max_links) {
    for (const auto& candidate : candidates) {
      if (selected.size() == max_links) break;
      bool already = false;
      for (const auto& s : selected) {
        if (s.first == candidate.first) {
          already = true;
          break;
        }
      }
      if (!already) selected.push_back(candidate);
    }
  }
  candidates = std::move(selected);
  (void)target;
}

void HnswIndex::PruneLinks(Slot slot, int layer, std::uint64_t& comps) {
  auto& links = nodes_[slot].links[static_cast<std::size_t>(layer)];
  const std::size_t max_links = layer == 0 ? options_.M * 2 : options_.M;
  if (links.size() <= max_links) return;
  std::vector<float> sims(links.size());
  SimBatch(SlotVector(slot), links.data(), links.size(), sims.data(), comps);
  std::vector<std::pair<Slot, double>> scored;
  scored.reserve(links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    scored.emplace_back(links[i], static_cast<double>(sims[i]));
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  scored.resize(max_links);
  links.clear();
  for (const auto& [nb, s] : scored) links.push_back(nb);
}

void HnswIndex::InsertNode(Slot slot, std::uint64_t& comps) {
  Node& node = nodes_[slot];
  const int node_level = static_cast<int>(node.links.size()) - 1;

  if (entry_point_ == kInvalidSlot) {
    entry_point_ = slot;
    max_level_ = node_level;
    return;
  }

  const std::span<const float> vec = SlotVector(slot);
  Slot entry = entry_point_;
  if (max_level_ > node_level) {
    entry = GreedyDescend(vec, entry, max_level_, node_level, comps);
  }

  for (int layer = std::min(node_level, max_level_); layer >= 0; --layer) {
    auto candidates =
        SearchLayer(vec, entry, options_.ef_construction, layer, comps);
    entry = candidates.front().first;
    SelectNeighbors(vec, candidates, options_.M, comps);
    auto& links = node.links[static_cast<std::size_t>(layer)];
    for (const auto& [nb, s] : candidates) {
      if (nb == slot) continue;
      links.push_back(nb);
      nodes_[nb].links[static_cast<std::size_t>(layer)].push_back(slot);
      PruneLinks(nb, layer, comps);
    }
  }

  if (node_level > max_level_) {
    max_level_ = node_level;
    entry_point_ = slot;
  }
}

void HnswIndex::Add(VectorId id, std::span<const float> vector) {
  CHECK_EQ(vector.size(), dimension_);
  DCHECK(NearlyUnitNorm(vector))
      << "HnswIndex scores by inner product; vectors must be unit-norm";
  const auto it = id_to_slot_.find(id);
  if (it != id_to_slot_.end() && !nodes_[it->second].deleted) {
    // Replace: tombstone the old node and insert fresh (graph links for the
    // old vector are no longer meaningful).  The old slab row stays — the
    // tombstone keeps routing through it until the next compaction.
    nodes_[it->second].deleted = true;
    --live_count_;
  }

  const auto slot = static_cast<Slot>(nodes_.size());
  Node node;
  node.id = id;
  node.row = vectors_.Add(vector);
  node.links.resize(static_cast<std::size_t>(RandomLevel()) + 1);
  nodes_.push_back(std::move(node));
  id_to_slot_[id] = slot;
  ++live_count_;
  std::uint64_t comps = 0;
  InsertNode(slot, comps);
  distcomp_.fetch_add(comps, std::memory_order_relaxed);
  RebuildIfNeeded();
}

bool HnswIndex::Remove(VectorId id) {
  const auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end() || nodes_[it->second].deleted) return false;
  nodes_[it->second].deleted = true;
  --live_count_;
  id_to_slot_.erase(it);
  RebuildIfNeeded();
  return true;
}

void HnswIndex::RebuildIfNeeded() {
  if (nodes_.empty() || live_count_ == nodes_.size()) return;
  const double tombstone_ratio =
      static_cast<double>(nodes_.size() - live_count_) /
      static_cast<double>(nodes_.size());
  if (tombstone_ratio < options_.tombstone_rebuild_ratio) return;

  // Copy live vectors out of the slab, then rebuild both graph and slab
  // from scratch (tombstoned rows are reclaimed wholesale by Clear).
  std::vector<Node> old = std::move(nodes_);
  std::vector<std::pair<VectorId, Vector>> live;
  live.reserve(live_count_);
  for (const auto& n : old) {
    if (n.deleted) continue;
    const auto row = vectors_.RowSpan(n.row);
    live.emplace_back(n.id, Vector(row.begin(), row.end()));
  }
  vectors_.Clear();
  nodes_.clear();
  id_to_slot_.clear();
  live_count_ = 0;
  entry_point_ = kInvalidSlot;
  max_level_ = -1;
  std::uint64_t comps = 0;
  for (auto& [id, vec] : live) {
    const auto slot = static_cast<Slot>(nodes_.size());
    Node node;
    node.id = id;
    node.row = vectors_.Add(vec);
    node.links.resize(static_cast<std::size_t>(RandomLevel()) + 1);
    nodes_.push_back(std::move(node));
    id_to_slot_[id] = slot;
    ++live_count_;
    InsertNode(slot, comps);
  }
  distcomp_.fetch_add(comps, std::memory_order_relaxed);
}

std::vector<SearchResult> HnswIndex::Search(std::span<const float> query,
                                            std::size_t k,
                                            double min_similarity) const {
  CHECK_EQ(query.size(), dimension_);
  if (k == 0 || live_count_ == 0) return {};
  std::uint64_t comps = 0;
  const Slot entry =
      GreedyDescend(query, entry_point_, max_level_, 0, comps);
  const std::size_t ef = std::max(options_.ef_search, k);
  const auto found =
      SearchLayer(query, entry, ef + tombstone_count(), 0, comps);
  distcomp_.fetch_add(comps, std::memory_order_relaxed);

  // Rerank the whole live beam exactly (see ann/exact_rerank.h): the
  // reported top-k does not depend on which SIMD variant ran the beam, and
  // similarities are exact.
  std::vector<ScanHit> hits;
  hits.reserve(found.size());
  for (const auto& [slot, sim] : found) {
    if (nodes_[slot].deleted) continue;
    hits.push_back(
        {nodes_[slot].id, static_cast<float>(sim), SlotVector(slot).data()});
  }
  const std::size_t pool = hits.size();
  return ExactRerank(query, std::move(hits), pool, k, min_similarity);
}

bool HnswIndex::Contains(VectorId id) const {
  const auto it = id_to_slot_.find(id);
  return it != id_to_slot_.end() && !nodes_[it->second].deleted;
}

std::optional<Vector> HnswIndex::Get(VectorId id) const {
  const auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end() || nodes_[it->second].deleted) {
    return std::nullopt;
  }
  const auto row = SlotVector(it->second);
  return Vector(row.begin(), row.end());
}

}  // namespace cortex
