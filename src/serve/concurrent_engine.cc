#include "serve/concurrent_engine.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>

#include "core/placement.h"
#include "util/check.h"

namespace cortex::serve {

namespace {

std::function<double()> WallClockSinceNow() {
  const auto start = std::chrono::steady_clock::now();
  return [start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
}

}  // namespace

ConcurrentShardedEngine::ConcurrentShardedEngine(
    const HashedEmbedder* embedder, const JudgerModel* judger,
    ConcurrentEngineOptions options)
    : embedder_(embedder),
      judger_(judger),
      options_(std::move(options)),
      clock_(options_.clock ? options_.clock : WallClockSinceNow()) {
  CHECK(embedder != nullptr) << "engine requires an embedder";
  CHECK_GT(options_.num_shards, 0u);

  if (options_.registry != nullptr) {
    registry_ = options_.registry;
  } else {
    registry_owned_ = std::make_unique<telemetry::MetricRegistry>();
    registry_ = registry_owned_.get();
  }
  lookups_ = registry_->GetCounter("cortex_engine_lookups");
  hits_ = registry_->GetCounter("cortex_engine_hits");
  misses_ = registry_->GetCounter("cortex_engine_misses");
  judger_rejects_ = registry_->GetCounter("cortex_engine_judger_rejects");
  inserts_ = registry_->GetCounter("cortex_engine_inserts");
  insert_rejects_ = registry_->GetCounter("cortex_engine_insert_rejects");
  expired_removed_ = registry_->GetCounter("cortex_engine_expired_removed");
  housekeeping_runs_ =
      registry_->GetCounter("cortex_engine_housekeeping_runs");
  recalibrations_ = registry_->GetCounter("cortex_engine_recalibrations");
  rows_scanned_ = registry_->GetCounter("cortex_engine_rows_scanned");
  scan_code_bytes_ = registry_->GetCounter("cortex_engine_scan_code_bytes");
  rerank_candidates_ =
      registry_->GetCounter("cortex_engine_rerank_candidates");
  probe_seconds_ = registry_->GetHistogram("cortex_engine_probe_seconds");
  commit_seconds_ = registry_->GetHistogram("cortex_engine_commit_seconds");
  insert_seconds_ = registry_->GetHistogram("cortex_engine_insert_seconds");
  cache_evictions_ = registry_->GetCounter("cortex_cache_evictions");
  cache_ttl_expiries_ = registry_->GetCounter("cortex_cache_ttl_expiries");
  cache_dedup_refreshes_ =
      registry_->GetCounter("cortex_cache_dedup_refreshes");
  cache_admission_rejects_ =
      registry_->GetCounter("cortex_cache_admission_rejects");
  cache_rejected_too_large_ =
      registry_->GetCounter("cortex_cache_rejected_too_large");
  cache_budget_rejects_ = registry_->GetCounter("cortex_cache_budget_rejects");
  cache_promotions_ = registry_->GetCounter("cortex_cache_promotions");
  cache_tokens_resident_ = registry_->GetGauge("cortex_cache_tokens_resident");
  cache_entries_ = registry_->GetGauge("cortex_cache_entries");
  tenant_registry_ =
      std::make_unique<tenant::TenantRegistry>(registry_, options_.tenants);

  SemanticCacheOptions per_shard = options_.cache;
  per_shard.capacity_tokens = options_.cache.capacity_tokens /
                              static_cast<double>(options_.num_shards);
  per_shard_capacity_ = per_shard.capacity_tokens;
  // Every shard runs LCFU eviction and recalibration seeded per shard.
  // Its cache keeps no ANN index: lookups probe the shard snapshot, which
  // the cache's change feed keeps in step.
  constexpr std::uint64_t kRecalibrationSeed = 97;
  shards_.reserve(options_.num_shards);
  for (std::size_t i = 0; i < options_.num_shards; ++i) {
    auto cache = std::make_unique<SemanticCache>(
        embedder, /*index=*/nullptr, judger,
        MakeEviction(EvictionKind::kLcfu), per_shard);
    shards_.push_back(std::make_unique<Shard>(
        std::move(cache), options_.recalibration, kRecalibrationSeed + i,
        embedder->dimension()));
    const std::string prefix =
        "cortex_engine_shard" + std::to_string(i) + "_";
    Shard& shard = *shards_.back();
    shard.hits = registry_->GetCounter(prefix + "hits");
    shard.misses = registry_->GetCounter(prefix + "misses");
    shard.judger_rejects = registry_->GetCounter(prefix + "judger_rejects");
    shard.evictions = registry_->GetCounter(prefix + "evictions");
    WriterLock lock(shard.mu);
    shard.cache->set_change_sink(&shard.changed);
    shard.cache->set_retire_sink(&shard.retired);
  }

  if (options_.housekeeping_interval_sec > 0.0) {
    housekeeper_ = std::thread([this] { HousekeepingLoop(); });
  }
}

ConcurrentShardedEngine::~ConcurrentShardedEngine() {
  StopHousekeeping();
  // No probes may be in flight once destruction starts (usual dtor
  // contract), so each shard's final header is freed outright; its
  // SnapshotWriter frees the chunks, records and limbo (retired SEs
  // included).
  for (auto& shard : shards_) {
    delete shard->snapshot.exchange(nullptr, std::memory_order_seq_cst);
  }
}

void ConcurrentShardedEngine::StopHousekeeping() {
  {
    MutexLock lock(hk_mu_);
    hk_stop_ = true;
  }
  hk_cv_.notify_all();
  if (housekeeper_.joinable()) housekeeper_.join();
}

std::size_t ConcurrentShardedEngine::ShardFor(std::string_view query) const {
  return RouteToShard(*embedder_, tokenizer_, query, shards_.size());
}

void ConcurrentShardedEngine::ApplyCacheDeltas(Shard& shard,
                                               const CacheCounters& before,
                                               const CacheCounters& after,
                                               double usage_delta,
                                               double entries_delta) {
  const std::uint64_t evictions = after.evictions - before.evictions;
  if (evictions > 0) {
    cache_evictions_->Inc(evictions);
    shard.evictions->Inc(evictions);
  }
  if (after.expirations > before.expirations) {
    cache_ttl_expiries_->Inc(after.expirations - before.expirations);
  }
  if (after.dedup_refreshes > before.dedup_refreshes) {
    cache_dedup_refreshes_->Inc(after.dedup_refreshes -
                                before.dedup_refreshes);
  }
  if (after.admission_rejects > before.admission_rejects) {
    cache_admission_rejects_->Inc(after.admission_rejects -
                                  before.admission_rejects);
  }
  if (after.rejected_too_large > before.rejected_too_large) {
    cache_rejected_too_large_->Inc(after.rejected_too_large -
                                   before.rejected_too_large);
  }
  if (after.budget_rejects > before.budget_rejects) {
    cache_budget_rejects_->Inc(after.budget_rejects - before.budget_rejects);
  }
  if (after.promotions > before.promotions) {
    cache_promotions_->Inc(after.promotions - before.promotions);
  }
  if (usage_delta != 0.0) cache_tokens_resident_->Add(usage_delta);
  if (entries_delta != 0.0) cache_entries_->Add(entries_delta);
}

void ConcurrentShardedEngine::SyncProbeState(Shard& shard) {
  shard.probe.Sync(*shard.cache, shard.changed, shard.retired,
                   shard.snapshot, epoch_);
}

SemanticCache::LookupResult ConcurrentShardedEngine::LockFreeProbe(
    Shard& shard, std::string_view query, double now, std::string_view tenant,
    ProbeTiming* timing, ScanWork* work) {
  // Embed outside the epoch section — it needs no shard state.  Timing is
  // collected only when a trace asked for it; the untimed path (Peek, and
  // every probe-scaling bench iteration) runs clock-free.
  const bool timed = timing != nullptr;
  const double embed_t0 = timed ? telemetry::WallSeconds() : 0.0;
  Vector query_embedding = embedder_->Embed(query);
  const double scan_t0 = timed ? telemetry::WallSeconds() : 0.0;
  if (timed) timing->embed_seconds = scan_t0 - embed_t0;

  // Scan, exact rerank, and stage 2 all run inside ONE guard over
  // borrowed records; the thread-local scratch makes the steady-state
  // probe allocation-free.  The judger is a pure in-process model, so
  // holding the guard across it is cheap; a remote judger would flip this
  // trade-off.
  thread_local ProbeScratch scratch;
  SemanticCache::LookupResult result;
  double judge_t0 = scan_t0;
  {
    EpochReadGuard guard(epoch_);
    const ShardSnapshot* snap =
        shard.snapshot.load(std::memory_order_seq_cst);
    if (snap == nullptr) {
      result.query_embedding = std::move(query_embedding);
      if (timed) timing->ann_seconds = telemetry::WallSeconds() - scan_t0;
      return result;
    }
    const ScanWork scanned = SnapshotScanRank(*snap, query_embedding, scratch);
    if (work != nullptr) *work = scanned;
    if (timed) {
      judge_t0 = telemetry::WallSeconds();
      timing->ann_seconds = judge_t0 - scan_t0;
    }
    result = SnapshotJudge(scratch.ranked, snap->sine,
                           std::move(query_embedding), query, now, tenant,
                           judger_);
  }
  if (timed) timing->judger_seconds = telemetry::WallSeconds() - judge_t0;
  return result;
}

std::optional<CacheHit> ConcurrentShardedEngine::Peek(std::string_view query,
                                                      std::string_view tenant) {
  Shard& shard = *shards_[ShardFor(query)];
  return LockFreeProbe(shard, query, clock_(), tenant, nullptr, nullptr).hit;
}

std::optional<CacheHit> ConcurrentShardedEngine::Lookup(
    std::string_view query, telemetry::RequestTrace* trace,
    std::string_view tenant) {
  const std::size_t shard_idx = ShardFor(query);
  Shard& shard = *shards_[shard_idx];
  const double now = clock_();

  // Probe (scan + judger — the expensive part) never blocks on the shard
  // mutex: it reads the epoch-protected snapshot.  Sub-phase timing is
  // only collected when a trace wants it.
  ProbeTiming timing;
  ScanWork work;
  const double probe_t0 = telemetry::WallSeconds();
  SemanticCache::LookupResult result =
      LockFreeProbe(shard, query, now, tenant,
                    trace != nullptr ? &timing : nullptr, &work);
  const double commit_t0 = telemetry::WallSeconds();

  // Commit (frequency bump, judgment log) is cheap; upgrade to the
  // exclusive lock.
  {
    WriterLock lock(shard.mu);
    // The matched SE may have been evicted since the probe — CommitLookup
    // tolerates that, and the hit already copied still serves the client.
    shard.cache->CommitLookup(result, now);
    // Log every judged candidate so recalibration sees scores on both
    // sides of the threshold (same policy as CortexEngine::Lookup).
    for (const auto& judged : result.sine.judged) {
      if (const SemanticElement* se = shard.cache->Get(judged.id)) {
        shard.recalibrator.LogJudgment(
            {std::string(query), se->key, se->value, judged.judger_score});
      }
    }
  }
  const double commit_seconds = telemetry::WallSeconds() - commit_t0;

  probe_seconds_->Observe(commit_t0 - probe_t0);
  commit_seconds_->Observe(commit_seconds);
  lookups_->Inc();
  rows_scanned_->Inc(work.rows_scanned);
  scan_code_bytes_->Inc(work.code_bytes);
  rerank_candidates_->Inc(work.rerank_candidates);
  if (result.hit) {
    hits_->Inc();
    shard.hits->Inc();
  } else {
    misses_->Inc();
    shard.misses->Inc();
    // A judger reject is a miss where stage 1 surfaced candidates but
    // stage 2 turned every one of them down.
    if (!result.sine.judged.empty()) {
      judger_rejects_->Inc();
      shard.judger_rejects->Inc();
    }
  }
  if (!tenant.empty()) {
    tenant_registry_->OnLookup(std::string(tenant), result.hit.has_value());
  }

  if (trace != nullptr) {
    trace->shard = static_cast<std::uint32_t>(shard_idx);
    // Probe sub-phases run back-to-back; reconstruct their starts by
    // accumulation from the probe start.
    double t = probe_t0;
    trace->AddSpan(telemetry::TracePhase::kEmbed, t, timing.embed_seconds);
    t += timing.embed_seconds;
    trace->AddSpan(telemetry::TracePhase::kAnnProbe, t, timing.ann_seconds);
    t += timing.ann_seconds;
    if (timing.judger_seconds > 0.0) {
      trace->AddSpan(telemetry::TracePhase::kJudger, t, timing.judger_seconds);
    }
    trace->AddSpan(telemetry::TracePhase::kCommit, commit_t0, commit_seconds);
  }
  return result.hit;
}

std::optional<SeId> ConcurrentShardedEngine::Insert(
    InsertRequest request, telemetry::RequestTrace* trace) {
  const std::size_t shard_idx = ShardFor(request.key);
  Shard& shard = *shards_[shard_idx];
  const double now = clock_();
  if (trace != nullptr) trace->shard = static_cast<std::uint32_t>(shard_idx);

  // Fill in the tenant's per-shard budget before the cache sees the
  // request — budget *policy* lives in the TenantRegistry, budget
  // *enforcement* in the core eviction path.
  const std::string tenant = request.tenant;
  if (!tenant.empty()) {
    request.budget_tokens =
        tenant_registry_->BudgetTokens(tenant, per_shard_capacity_);
  }

  InsertTiming timing;
  CacheCounters before, after;
  double usage_delta = 0.0;
  double entries_delta = 0.0;
  std::uint64_t tenant_evictions_delta = 0;
  std::optional<SeId> id;
  const double insert_t0 = telemetry::WallSeconds();
  {
    WriterLock lock(shard.mu);
    before = shard.cache->counters();
    const double usage_before = shard.cache->usage_tokens();
    const auto size_before = shard.cache->size();
    const std::uint64_t tenant_evictions_before =
        tenant.empty() ? 0 : shard.cache->TenantUsageFor(tenant).evictions;
    id = shard.cache->Insert(std::move(request), now, &timing);
    after = shard.cache->counters();
    usage_delta = shard.cache->usage_tokens() - usage_before;
    entries_delta = static_cast<double>(shard.cache->size()) -
                    static_cast<double>(size_before);
    if (!tenant.empty()) {
      tenant_evictions_delta = shard.cache->TenantUsageFor(tenant).evictions -
                               tenant_evictions_before;
    }
    SyncProbeState(shard);
  }
  const double insert_end = telemetry::WallSeconds();
  insert_seconds_->Observe(insert_end - insert_t0);
  ApplyCacheDeltas(shard, before, after, usage_delta, entries_delta);
  (id ? inserts_ : insert_rejects_)->Inc();
  if (!tenant.empty()) {
    tenant_registry_->OnInsert(tenant, id.has_value());
    tenant_registry_->OnEvictions(tenant, tenant_evictions_delta);
    if (after.promotions > before.promotions) {
      tenant_registry_->OnPromotion(tenant);
    }
  }

  if (trace != nullptr) {
    trace->AddSpan(telemetry::TracePhase::kInsert, insert_t0,
                   insert_end - insert_t0);
    if (timing.evict_seconds > 0.0) {
      trace->AddSpan(telemetry::TracePhase::kEviction, insert_t0,
                     timing.evict_seconds);
    }
  }
  return id;
}

bool ConcurrentShardedEngine::ContainsKey(std::string_view key,
                                          std::string_view tenant) const {
  const Shard& shard = *shards_[ShardFor(key)];
  ReaderLock lock(shard.mu);
  return shard.cache->ContainsKey(key, tenant);
}

std::size_t ConcurrentShardedEngine::RemoveExpired() {
  const double now = clock_();
  std::size_t removed = 0;
  for (auto& shard : shards_) {
    CacheCounters before, after;
    double usage_delta = 0.0;
    double entries_delta = 0.0;
    {
      WriterLock lock(shard->mu);
      before = shard->cache->counters();
      const double usage_before = shard->cache->usage_tokens();
      const auto size_before = shard->cache->size();
      removed += shard->cache->RemoveExpired(now);
      after = shard->cache->counters();
      usage_delta = shard->cache->usage_tokens() - usage_before;
      entries_delta = static_cast<double>(shard->cache->size()) -
                      static_cast<double>(size_before);
      SyncProbeState(*shard);
    }
    ApplyCacheDeltas(*shard, before, after, usage_delta, entries_delta);
  }
  expired_removed_->Inc(removed);
  return removed;
}

SnapshotStats ConcurrentShardedEngine::SaveSnapshot(std::ostream& out) const {
  const double now = clock_();
  WriteSnapshotHeader(out, now, shards_.size());
  SnapshotStats stats;
  for (const auto& shard : shards_) {
    ReaderLock lock(shard->mu);
    WriteSnapshotSection(out, now, *shard->cache);
    stats.entries_written += shard->cache->size();
  }
  return stats;
}

SnapshotStats ConcurrentShardedEngine::LoadSnapshot(std::istream& in) {
  return RestoreSnapshot(DecodeSnapshot(in), clock_(),
                         [this](SemanticElement se) {
                           return RestoreElement(std::move(se)).has_value();
                         });
}

std::optional<SeId> ConcurrentShardedEngine::RestoreElement(
    SemanticElement se) {
  Shard& shard = *shards_[ShardFor(se.key)];
  const double now = clock_();
  CacheCounters before, after;
  double usage_delta = 0.0;
  double entries_delta = 0.0;
  std::optional<SeId> id;
  {
    WriterLock lock(shard.mu);
    before = shard.cache->counters();
    const double usage_before = shard.cache->usage_tokens();
    const auto size_before = shard.cache->size();
    id = shard.cache->RestoreElement(std::move(se), now);
    after = shard.cache->counters();
    usage_delta = shard.cache->usage_tokens() - usage_before;
    entries_delta = static_cast<double>(shard.cache->size()) -
                    static_cast<double>(size_before);
    SyncProbeState(shard);
  }
  ApplyCacheDeltas(shard, before, after, usage_delta, entries_delta);
  return id;
}

void ConcurrentShardedEngine::SetGroundTruthFetcher(
    std::function<std::string(std::string_view)> fn) {
  MutexLock lock(fetch_gt_mu_);
  fetch_gt_ = std::move(fn);
}

bool ConcurrentShardedEngine::RecalibrateShard(Shard& shard) {
  std::function<std::string(std::string_view)> fetch;
  {
    MutexLock lock(fetch_gt_mu_);
    fetch = fetch_gt_;
  }
  if (!fetch) return false;
  WriterLock lock(shard.mu);
  const RecalibrationRound round = shard.recalibrator.RunRound(fetch, shard.rng);
  recalibrations_->Inc();
  if (round.new_tau) {
    shard.cache->sine().set_tau_lsm(*round.new_tau);
    // Thresholds are frozen into the published snapshot; republish so
    // lock-free probes judge against the recalibrated tau.
    SyncProbeState(shard);
    return true;
  }
  return false;
}

std::size_t ConcurrentShardedEngine::RecalibrateAllShards() {
  std::size_t changed = 0;
  for (auto& shard : shards_) {
    if (RecalibrateShard(*shard)) ++changed;
  }
  return changed;
}

void ConcurrentShardedEngine::HousekeepingLoop() {
  using namespace std::chrono_literals;
  // Start at -inf so the first tick always runs — the loop must not miss a
  // clock jump that happened before this thread got scheduled (tests with
  // injected clocks rely on this).
  double last_purge = -std::numeric_limits<double>::infinity();
  double last_recal = last_purge;
  std::unique_lock<RankedMutex> lk(hk_mu_);
  while (!hk_stop_) {
    // Poll on a short wall-clock cadence but trigger on the *engine*
    // clock, so tests with injected clocks control when ticks fire.
    hk_cv_.wait_for(lk, 20ms, [this] { return hk_stop_; });
    if (hk_stop_) break;
    lk.unlock();
    const double now = clock_();
    if (now - last_purge >= options_.housekeeping_interval_sec) {
      last_purge = now;
      RemoveExpired();
      housekeeping_runs_->Inc();
    }
    if (options_.recalibration_interval_sec > 0.0 &&
        now - last_recal >= options_.recalibration_interval_sec) {
      last_recal = now;
      RecalibrateAllShards();
    }
    // Advance the reclamation epoch; each shard's limbo (headers, chunks,
    // records) drains on its next write.
    epoch_.Flush();
    lk.lock();
  }
}

ConcurrentEngineStats ConcurrentShardedEngine::Stats() const {
  ConcurrentEngineStats s;
  s.lookups = lookups_->Value();
  s.hits = hits_->Value();
  s.inserts = inserts_->Value();
  s.insert_rejects = insert_rejects_->Value();
  s.expired_removed = expired_removed_->Value();
  s.housekeeping_runs = housekeeping_runs_->Value();
  s.recalibrations = recalibrations_->Value();
  return s;
}

CacheCounters ConcurrentShardedEngine::TotalCounters() const {
  CacheCounters total;
  for (const auto& shard : shards_) {
    ReaderLock lock(shard->mu);
    const auto& c = shard->cache->counters();
    total.lookups += c.lookups;
    total.hits += c.hits;
    total.insertions += c.insertions;
    total.evictions += c.evictions;
    total.expirations += c.expirations;
    total.rejected_too_large += c.rejected_too_large;
    total.dedup_refreshes += c.dedup_refreshes;
    total.admission_rejects += c.admission_rejects;
    total.budget_rejects += c.budget_rejects;
    total.promotions += c.promotions;
  }
  return total;
}

std::size_t ConcurrentShardedEngine::TotalSize() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    ReaderLock lock(shard->mu);
    total += shard->cache->size();
  }
  return total;
}

double ConcurrentShardedEngine::TotalUsageTokens() const {
  double total = 0.0;
  for (const auto& shard : shards_) {
    ReaderLock lock(shard->mu);
    total += shard->cache->usage_tokens();
  }
  return total;
}

double ConcurrentShardedEngine::tau_lsm(std::size_t shard) const {
  const Shard& s = *shards_.at(shard);
  ReaderLock lock(s.mu);
  return s.cache->sine().options().tau_lsm;
}

}  // namespace cortex::serve
