#include "serve/shard_snapshot.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "util/check.h"

namespace cortex::serve {

namespace {

// The first 32-byte boundary in a block allocated with 31 spare bytes.
std::int8_t* Align32(std::int8_t* p) noexcept {
  return p + (-reinterpret_cast<std::uintptr_t>(p) & 31);
}

}  // namespace

SnapshotChunk::SnapshotChunk(std::size_t dim)
    : dim_(dim),
      storage_(new std::int8_t[dim * kSnapshotChunkRows + 31]()),
      codes_(Align32(storage_.get())) {}

SnapshotChunk::SnapshotChunk(const SnapshotChunk& other)
    : size(other.size),
      dim_(other.dim_),
      storage_(new std::int8_t[dim_ * kSnapshotChunkRows + 31]),
      codes_(Align32(storage_.get())) {
  std::copy(std::begin(other.records), std::end(other.records), records);
  std::copy(std::begin(other.scales), std::end(other.scales), scales);
  std::copy(other.codes_, other.codes_ + dim_ * kSnapshotChunkRows, codes_);
}

ScanWork SnapshotScanRank(const ShardSnapshot& snap,
                          std::span<const float> query,
                          ProbeScratch& scratch) {
  scratch.ranked.clear();
  const std::size_t n = snap.size();
  if (n == 0) return {};
  DCHECK_EQ(query.size(), snap.dim);

  // Phase 1: one query quantization per probe, listed as its nonzero
  // codes in pairs; the integer dot itself is exact.  Every chunk scores
  // all its slots, so score i is still snapshot position i.
  scratch.q8.resize(snap.dim);
  const float q_scale = simd::QuantizeRowI8(query, scratch.q8.data());
  const std::size_t pairs =
      simd::NonzeroPairsI8(scratch.q8, scratch.cols, scratch.weights);
  const std::size_t chunks = snap.chunks.size();
  scratch.sims.resize(chunks * kSnapshotChunkRows);
  for (std::size_t c = 0; c < chunks; ++c) {
    const SnapshotChunk& chunk = *snap.chunks[c];
    const std::int8_t* next =
        c + 1 < chunks ? snap.chunks[c + 1]->codes() : nullptr;
    simd::DotColsI8(scratch.cols.data(), scratch.weights.data(), pairs,
                    chunk.codes(), next, q_scale, chunk.scales,
                    scratch.sims.data() + c * kSnapshotChunkRows);
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
  return {.rows_scanned = n,
          .code_bytes = chunks * 2 * pairs * kSnapshotChunkRows,
          .rerank_candidates = pool_size};
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

SnapshotWriter::SnapshotWriter(std::size_t dim) : dim_(dim), row_(dim) {}

SnapshotWriter::~SnapshotWriter() = default;

void SnapshotWriter::Sync(const SemanticCache& cache,
                          std::vector<SeId>& changed,
                          std::vector<SemanticCache::RetiredElement>& retired,
                          std::atomic<const ShardSnapshot*>& published,
                          EpochDomain& epoch) {
  // Units past their grace period go first.  Limbo epochs are
  // non-decreasing: draining is a prefix pop.
  const std::uint64_t safe = epoch.safe_epoch();
  while (!limbo_.empty() && limbo_.front().epoch <= safe) {
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
  // embedding are immutable per id, so a stale record keeps its codes.
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
  header->dim = dim_;
  header->sine = live;
  header->entries = size_;
  // One branch-free pass: at 64k entries a shard the spine is 2 048
  // pointers, and a push_back loop over it showed in insert latency.
  header->chunks.resize(chunks_.size());
  std::transform(chunks_.begin(), chunks_.end(), header->chunks.begin(),
                 [](const auto& c) { return c.get(); });
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
    chunks_.push_back(std::make_unique<SnapshotChunk>(dim_));
    fresh_.push_back(1);
  }
  // The snapshot is the shard's only index, so this is the one
  // release-mode guard on a serving write's vector length.
  CHECK_EQ(se.embedding.size(), dim_);
  auto record = std::make_unique<const ProbeRecord>(
      ProbeRecord{.id = se.id,
                  .key = se.key,
                  .value = se.value,
                  .embedding = se.embedding,
                  .tenant = se.tenant,
                  .created_at = se.created_at,
                  .expiration_time = se.expiration_time});
  SnapshotChunk& c = Mutable(pos / kSnapshotChunkRows);
  const std::size_t k = pos % kSnapshotChunkRows;
  c.scales[k] = simd::QuantizeRowI8(se.embedding, row_.data());
  for (std::size_t d = 0; d < dim_; ++d) {
    c.codes()[d * kSnapshotChunkRows + k] = row_[d];
  }
  c.records[k] = record.get();
  ++c.size;
  ++size_;
  resident_.emplace(se.id, Resident{std::move(record), pos});
}

void SnapshotWriter::Remove(std::unordered_map<SeId, Resident>::iterator it) {
  // Swap-remove: the last entry moves into the hole, so at most two
  // chunks change and the spine stays dense.
  Resident& r = it->second;
  const auto last = static_cast<std::uint32_t>(size_ - 1);
  if (r.pos != last) {
    SnapshotChunk& dst = Mutable(r.pos / kSnapshotChunkRows);
    const SnapshotChunk& src = *chunks_[last / kSnapshotChunkRows];
    const std::size_t k = r.pos % kSnapshotChunkRows;
    const std::size_t from = last % kSnapshotChunkRows;
    for (std::size_t d = 0; d < dim_; ++d) {
      dst.codes()[d * kSnapshotChunkRows + k] =
          src.codes()[d * kSnapshotChunkRows + from];
    }
    dst.scales[k] = src.scales[from];
    dst.records[k] = src.records[from];
    resident_.at(dst.records[k]->id).pos = r.pos;
  }
  if (--Mutable(chunks_.size() - 1).size == 0) {
    chunks_.pop_back();  // a fresh copy: its published original is parked
    fresh_.pop_back();
  }
  --size_;
  unlinked_.push_back(Retired{.record = std::move(r.record)});
  resident_.erase(it);
}

void SnapshotWriter::Retag(Resident& r, const SemanticElement& se) {
  ProbeRecord copy = *r.record;
  copy.created_at = se.created_at;
  copy.expiration_time = se.expiration_time;
  copy.tenant = se.tenant;
  auto record = std::make_unique<const ProbeRecord>(std::move(copy));
  Mutable(r.pos / kSnapshotChunkRows).records[r.pos % kSnapshotChunkRows] =
      record.get();
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

}  // namespace cortex::serve
