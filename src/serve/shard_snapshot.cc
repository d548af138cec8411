#include "serve/shard_snapshot.h"

#include <algorithm>
#include <cstddef>

#include "embedding/simd_kernels.h"
#include "util/check.h"

namespace cortex::serve {

std::size_t SnapshotScanRank(const ShardSnapshot& snap,
                             std::span<const float> query,
                             ProbeScratch& scratch) {
  scratch.ranked.clear();
  const std::size_t n = snap.size();
  if (n == 0) return 0;
  DCHECK_EQ(query.size(), snap.dim);

  // Phase 1: one query quantization per probe; the integer dot itself is
  // exact.
  scratch.sims.resize(n);
  scratch.q8.resize(snap.dim);
  const float q_scale = simd::QuantizeRowI8(query, scratch.q8.data());
  float* out = scratch.sims.data();
  for (const SnapshotChunk* c : snap.chunks) {
    simd::DotRowsI8(scratch.q8.data(), q_scale, c->rows, c->scales, c->size,
                    snap.dim, out);
    out += c->size;
  }
  const float* const sims = scratch.sims.data();

  // Prefilter at tau_sim minus the quantization slack, then keep a pool
  // wide enough that the exact rerank's true top-k is always inside it
  // (FlatIndex's two-phase argument, with extra width for the larger
  // quantized error).
  const double floor = snap.sine.tau_sim - kQuantSimSlack;
  auto& keep = scratch.keep;
  keep.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (static_cast<double>(sims[i]) >= floor) {
      keep.push_back(static_cast<std::uint32_t>(i));
    }
  }
  const std::size_t pool_size =
      std::min(keep.size(), std::max<std::size_t>(4 * snap.sine.top_k, 32));
  const auto pooled = [&](std::uint32_t a, std::uint32_t b) {
    return sims[a] != sims[b] ? sims[a] > sims[b]
                              : snap.record(a)->id < snap.record(b)->id;
  };
  std::partial_sort(keep.begin(),
                    keep.begin() + static_cast<std::ptrdiff_t>(pool_size),
                    keep.end(), pooled);

  // Phase 2: exact rerank over the fp32 originals — ExactDotRows is bit
  // for bit the scalar double kernel FlatIndex::Search rescores with, so
  // the ranked list is what a kFlat Sine over the same entries would
  // produce.
  scratch.rerank_rows.resize(pool_size);
  scratch.rerank_sims.resize(pool_size);
  for (std::size_t i = 0; i < pool_size; ++i) {
    scratch.rerank_rows[i] = snap.record(keep[i])->embedding.data();
  }
  simd::ExactDotRows(query.data(), scratch.rerank_rows.data(), pool_size,
                     query.size(), scratch.rerank_sims.data());
  for (std::size_t i = 0; i < pool_size; ++i) {
    const double sim = scratch.rerank_sims[i];
    if (sim >= snap.sine.tau_sim) {
      scratch.ranked.push_back({sim, snap.record(keep[i])});
    }
  }
  std::sort(scratch.ranked.begin(), scratch.ranked.end(),
            [](const RankedCandidate& a, const RankedCandidate& b) {
              return a.sim != b.sim ? a.sim > b.sim
                                    : a.record->id < b.record->id;
            });
  if (scratch.ranked.size() > snap.sine.top_k) {
    scratch.ranked.resize(snap.sine.top_k);
  }
  return pool_size;
}

SemanticCache::LookupResult SnapshotJudge(
    std::span<const RankedCandidate> ranked, const SineOptions& opt,
    Vector query_embedding, std::string_view query, double now,
    std::string_view tenant, const JudgerModel* judger) {
  SemanticCache::LookupResult result;
  result.query_embedding = std::move(query_embedding);
  result.sine.ann_candidates = ranked.size();
  if (ranked.empty()) return result;

  // Visibility mirrors SemanticCache::Lookup's accessor: future-dated and
  // expired entries are skipped (never removed — this path is read-only),
  // and another tenant's private entries stay invisible.  The top_k
  // truncation deliberately ran FIRST: Sine's stage 1 has no tenant
  // concept either, so invisible entries consume top_k slots there too.
  const auto visible = [&](const ProbeRecord& r) {
    return r.created_at <= now && r.expiration_time > now &&
           (r.tenant.empty() || r.tenant == tenant);
  };

  if (!opt.use_judger) {
    // Agent_ANN ablation: top similarity wins outright.
    for (const RankedCandidate& r : ranked) {
      if (r.sim < opt.ann_only_threshold) continue;
      const ProbeRecord& rec = *r.record;
      if (!visible(rec)) continue;
      result.sine.match = SineCandidate{rec.id, r.sim, 0.0};
      result.hit = CacheHit{rec.id, std::string(rec.value),
                            std::string(rec.key), r.sim, 0.0};
      break;  // candidates are sorted best-first
    }
    return result;
  }

  CHECK(judger != nullptr) << "use_judger requires a judger model";
  for (const RankedCandidate& r : ranked) {
    const ProbeRecord& rec = *r.record;
    if (!visible(rec)) continue;
    JudgeRequest req;
    req.query = query;
    req.cached_query = rec.key;
    req.cached_result = rec.value;
    req.embedding_similarity = r.sim;
    const double score = judger->Judge(req);
    ++result.sine.judger_calls;
    result.sine.judged.push_back({rec.id, r.sim, score});
    if (score >= opt.tau_lsm) {
      result.sine.match = SineCandidate{rec.id, r.sim, score};
      result.hit = CacheHit{rec.id, std::string(rec.value),
                            std::string(rec.key), r.sim, score};
      break;
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// SnapshotWriter

namespace {

// Parked entries that trigger an epoch advance from the write path, so
// limbo stays bounded even with the housekeeping thread disabled.
constexpr std::size_t kLimboFlushThreshold = 64;

}  // namespace

SnapshotWriter::SnapshotWriter(std::size_t dim)
    : slab_(dim, RowFormat::kI8) {}

SnapshotWriter::~SnapshotWriter() = default;

void SnapshotWriter::Sync(const SemanticCache& cache,
                          std::vector<SeId>& changed,
                          std::vector<SemanticCache::RetiredElement>& retired,
                          std::atomic<const ShardSnapshot*>& published,
                          EpochDomain& epoch) {
  // Units past their grace period go first, so this sync's adds can reuse
  // their rows.  Limbo epochs are non-decreasing: draining is a prefix pop.
  const std::uint64_t safe = epoch.safe_epoch();
  while (!limbo_.empty() && limbo_.front().epoch <= safe) {
    if (limbo_.front().row != kNoRow) slab_.Free(limbo_.front().row);
    limbo_.pop_front();
  }

  // Removed SEs park beside the records that borrowed from them, so this
  // runs before the loop below unlinks those records.  An SE that left
  // before it was ever published has no record and goes at once.
  for (SemanticCache::RetiredElement& element : retired) {
    if (resident_.contains(element.key())) {
      unlinked_.push_back(Retired{.element = std::move(element)});
    }
  }
  retired.clear();

  // Reconcile only the ids the cache reported.  A record is stale when
  // its id vanished or its probe fingerprint changed (dedup refresh
  // renews the TTL, promotion retags the tenant); key, value and
  // embedding are immutable per id, so a stale record keeps its row.
  bool dirty = false;
  for (const SeId id : changed) {
    const SemanticElement* se = cache.Get(id);
    const auto it = resident_.find(id);
    if (se == nullptr) {
      if (it == resident_.end()) continue;
      Remove(it);
    } else if (it == resident_.end()) {
      Add(*se);
    } else {
      const ProbeRecord& rec = *it->second.record;
      if (se->created_at == rec.created_at &&
          se->expiration_time == rec.expiration_time &&
          se->tenant == rec.tenant) {
        continue;
      }
      Retag(it->second, *se);
    }
    dirty = true;
  }
  changed.clear();

  // Republish when an entry changed OR the Sine thresholds moved (they
  // are frozen into the header; a threshold-only publish copies just the
  // spine).
  const ShardSnapshot* cur = published.load(std::memory_order_seq_cst);
  const SineOptions& live = cache.sine().options();
  if (!dirty && cur != nullptr && cur->sine.tau_lsm == live.tau_lsm &&
      cur->sine.tau_sim == live.tau_sim) {
    return;
  }
  auto header = std::make_unique<ShardSnapshot>();
  header->dim = slab_.dim();
  header->sine = live;
  header->entries = size_;
  header->chunks.reserve(chunks_.size());
  for (const auto& c : chunks_) header->chunks.push_back(c.get());
  const ShardSnapshot* old =
      published.exchange(header.release(), std::memory_order_seq_cst);
  if (old != nullptr) {
    unlinked_.push_back(
        Retired{.header = std::unique_ptr<const ShardSnapshot>(old)});
  }

  // Stamp AFTER the exchange: a reader that loaded the old header entered
  // at an epoch <= the epoch at exchange time.
  const std::uint64_t stamp = epoch.current_epoch();
  for (Retired& r : unlinked_) {
    r.epoch = stamp;
    limbo_.push_back(std::move(r));
  }
  unlinked_.clear();
  std::fill(fresh_.begin(), fresh_.end(), 0);

  // kEpochRetire (70) ranks above kEngineShard (50), so flushing while
  // the caller holds shard.mu is in order.
  if (limbo_.size() > kLimboFlushThreshold) epoch.Flush();
}

void SnapshotWriter::Add(const SemanticElement& se) {
  const auto pos = static_cast<std::uint32_t>(size_);
  if (pos % kSnapshotChunkRows == 0) {
    chunks_.push_back(std::make_unique<SnapshotChunk>());
    fresh_.push_back(1);
  }
  // The slab is the shard's only index, so this is the one release-mode
  // guard on a serving write's vector length.
  CHECK_EQ(se.embedding.size(), slab_.dim());
  auto record = std::make_unique<const ProbeRecord>(
      ProbeRecord{.id = se.id,
                  .key = se.key,
                  .value = se.value,
                  .embedding = se.embedding,
                  .tenant = se.tenant,
                  .created_at = se.created_at,
                  .expiration_time = se.expiration_time});
  const std::uint32_t row = slab_.Add(se.embedding);
  Put(pos, record.get(), row);
  ++chunks_.back()->size;
  ++size_;
  resident_.emplace(se.id, Resident{std::move(record), row, pos});
}

void SnapshotWriter::Remove(std::unordered_map<SeId, Resident>::iterator it) {
  // Swap-remove: the last entry moves into the hole, so at most two
  // chunks change and the spine stays dense.
  Resident& r = it->second;
  const auto last = static_cast<std::uint32_t>(size_ - 1);
  if (r.pos != last) {
    const ProbeRecord* moved =
        chunks_[last / kSnapshotChunkRows]->records[last % kSnapshotChunkRows];
    Resident& m = resident_.at(moved->id);
    Put(r.pos, moved, m.row);
    m.pos = r.pos;
  }
  if (--Mutable(chunks_.size() - 1).size == 0) {
    chunks_.pop_back();  // a fresh copy: its published original is parked
    fresh_.pop_back();
  }
  --size_;
  unlinked_.push_back(Retired{.record = std::move(r.record), .row = r.row});
  resident_.erase(it);
}

void SnapshotWriter::Retag(Resident& r, const SemanticElement& se) {
  ProbeRecord copy = *r.record;
  copy.created_at = se.created_at;
  copy.expiration_time = se.expiration_time;
  copy.tenant = se.tenant;
  auto record = std::make_unique<const ProbeRecord>(std::move(copy));
  Put(r.pos, record.get(), r.row);
  unlinked_.push_back(Retired{.record = std::move(r.record)});
  r.record = std::move(record);
}

std::size_t SnapshotWriter::retired_elements() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(limbo_.begin(), limbo_.end(),
                    [](const Retired& r) { return !r.element.empty(); }));
}

SnapshotChunk& SnapshotWriter::Mutable(std::size_t c) {
  if (!fresh_[c]) {
    auto copy = std::make_unique<SnapshotChunk>(*chunks_[c]);
    unlinked_.push_back(Retired{.chunk = std::move(chunks_[c])});
    chunks_[c] = std::move(copy);
    fresh_[c] = 1;
  }
  return *chunks_[c];
}

void SnapshotWriter::Put(std::uint32_t pos, const ProbeRecord* record,
                         std::uint32_t row) {
  SnapshotChunk& c = Mutable(pos / kSnapshotChunkRows);
  const std::size_t k = pos % kSnapshotChunkRows;
  c.records[k] = record;
  c.rows[k] = slab_.RowI8(row);
  c.scales[k] = slab_.RowScale(row);
}

}  // namespace cortex::serve
