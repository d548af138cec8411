// ConcurrentShardedEngine: the thread-safe engine front of the serving
// layer (cortexd).  Wraps the paper's sharded deployment (Fig. 4) for real
// parallel clients instead of the single-threaded virtual-clock sim:
//
//   * a lock-free lookup probe (DESIGN.md §13): each shard publishes an
//     immutable ShardSnapshot — a spine of chunks of quantized scan rows
//     plus probe-relevant record copies — through a seq_cst atomic
//     pointer; readers pin it with an EpochReadGuard and never touch the
//     shard mutex for the expensive part (scan + judger).  The snapshot is
//     the shard's only searchable store: its SemanticCache keeps no ANN
//     index.  Writers copy only the chunks a write touched, republish
//     under the exclusive lock, and park what they replaced until the
//     engine's EpochDomain says no reader can hold it.  The cheap commit
//     (counters, frequency bump) takes the exclusive lock;
//     insert/evict/expire take it outright;
//   * live telemetry (DESIGN.md §8): every request updates counters,
//     gauges, and latency histograms on a MetricRegistry — instrument
//     handles are resolved once at construction, so the hot path is pure
//     relaxed atomics and never touches the registry mutex or any lock;
//   * a background housekeeping thread that periodically runs RemoveExpired
//     on every shard and — when ground truth is reachable — per-shard
//     threshold recalibration ticks (Algorithm 1, ported from CortexEngine).
//
// Lock order (machine-checked in debug builds by RankedMutex, see the
// rank table in DESIGN.md §7): fetch_gt_mu_ (30) < hk_mu_ (40) < shard.mu
// (50).  Shard mutexes are leaves — no other lock is ever acquired while
// one is held, and at most one shard mutex is held at a time (cross-shard
// aggregates lock shard by shard, so totals are per-shard-consistent
// snapshots, not a global atomic view).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/snapshot.h"
#include "core/recalibrator.h"
#include "core/semantic_cache.h"
#include "embedding/hashed_embedder.h"
#include "serve/shard_snapshot.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "tenant/registry.h"
#include "util/epoch.h"
#include "util/ranked_mutex.h"
#include "util/rng.h"
#include "util/thread_annotations.h"
#include "util/tokenizer.h"

namespace cortex::serve {

struct ConcurrentEngineOptions {
  std::size_t num_shards = 4;
  // Per-shard options; capacity_tokens is the TOTAL budget, divided evenly
  // across shards.
  SemanticCacheOptions cache;

  // Background housekeeping cadence in engine-clock seconds; <= 0 disables
  // the thread entirely (tests drive RemoveExpired by hand).
  double housekeeping_interval_sec = 1.0;
  // Recalibration tick cadence; <= 0 disables.  Ticks only do work once a
  // ground-truth fetcher is installed (SetGroundTruthFetcher).
  double recalibration_interval_sec = 0.0;
  RecalibratorOptions recalibration;

  // Engine clock in seconds.  Defaults to wall-clock seconds since engine
  // construction; tests inject a fake.  Must be monotonic non-decreasing
  // and safe to call from any thread.  Telemetry timing (histograms,
  // spans) deliberately ignores this clock and uses real wall time.
  std::function<double()> clock;

  // Metric registry to publish into; must outlive the engine.  When null
  // the engine owns a private registry (reachable via registry()).
  telemetry::MetricRegistry* registry = nullptr;

  // Multi-tenant quotas + telemetry (DESIGN.md §12).  The engine owns a
  // TenantRegistry built from these options; per-tenant cache budgets are
  // computed against each shard's capacity share.
  tenant::TenantRegistryOptions tenants;
};

// Lock-free snapshot of the engine-wide counters (a thin view over the
// registry's cortex_engine_* instruments).
struct ConcurrentEngineStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t inserts = 0;          // accepted (new id or dedup refresh)
  std::uint64_t insert_rejects = 0;   // too large / admission-rejected
  std::uint64_t expired_removed = 0;  // via housekeeping or RemoveExpired()
  std::uint64_t housekeeping_runs = 0;
  std::uint64_t recalibrations = 0;   // per-shard recalibration rounds run
};

// ---------------------------------------------------------------------------
// Engine-snapshot blob helpers for peers that hold no engine.  The cluster
// router filters a migration stream by ring ownership: it iterates a node's
// SNAPSHOT blob element by element, keeps what the joining node should own,
// and re-packs the survivors as a single-shard engine snapshot — which any
// node's LoadSnapshot re-routes by key, so shard layouts never have to
// match across the wire.

// Invokes `fn` for every element of an engine snapshot stream.  Returns
// elements visited; throws std::runtime_error on malformed input.
std::uint64_t ForEachEngineSnapshotElement(
    std::istream& in, const std::function<void(SemanticElement)>& fn);

// Writes `elements` as a one-shard engine snapshot readable by
// LoadSnapshot on an engine of any shard count.
void WriteEngineSnapshot(std::ostream& out,
                         const std::vector<SemanticElement>& elements);

class ConcurrentShardedEngine {
 public:
  // embedder/judger are borrowed and must outlive the engine.  The
  // embedder must already be IDF-fitted (routing and matching both use the
  // weights) and must not be refit while the engine is live.
  ConcurrentShardedEngine(const HashedEmbedder* embedder,
                          const JudgerModel* judger,
                          ConcurrentEngineOptions options = {});
  ~ConcurrentShardedEngine();

  ConcurrentShardedEngine(const ConcurrentShardedEngine&) = delete;
  ConcurrentShardedEngine& operator=(const ConcurrentShardedEngine&) = delete;

  // Two-stage semantic lookup at the engine clock's now, scoped to
  // `tenant` (empty = shared pool only).  `trace`, when non-null, receives
  // embed / ANN probe / judger / commit spans and the shard id.
  std::optional<CacheHit> Lookup(std::string_view query,
                                 telemetry::RequestTrace* trace = nullptr,
                                 std::string_view tenant = {});

  // Read-only lookup: the same two-stage probe, but nothing commits — no
  // frequency bump, no judgment log, no stats.  It touches no shard mutex
  // at all, so concurrent Peeks scale with cores (the probe-scaling leg
  // of bench_concurrency measures exactly this); it is also the right
  // call for health checks and cache-warmness queries that must not
  // perturb eviction state.
  std::optional<CacheHit> Peek(std::string_view query,
                               std::string_view tenant = {});

  // Insert knowledge fetched by a client on a miss.  Returns the SE id, or
  // nullopt when rejected (value too large, admission doorkeeper, tenant
  // budget).  When request.tenant is set, the engine fills in the
  // tenant's per-shard budget from the TenantRegistry before the cache
  // sees the request.  `trace`, when non-null, receives insert / eviction
  // spans.
  std::optional<SeId> Insert(InsertRequest request,
                             telemetry::RequestTrace* trace = nullptr);

  bool ContainsKey(std::string_view key, std::string_view tenant = {}) const;

  // Manual full TTL purge across all shards (the housekeeping thread calls
  // this on its own cadence).  Returns entries removed.
  std::size_t RemoveExpired();

  // Multi-shard snapshot (cluster migration, warm restarts).  The format is
  // a small engine header followed by one bounded core/snapshot stream per
  // shard, written shard-by-shard under each shard's shared lock — the
  // engine keeps serving while a snapshot streams out, and the result is
  // per-shard-consistent (the same guarantee every cross-shard aggregate
  // gives).  Throws std::runtime_error on stream failure.
  SnapshotStats SaveSnapshot(std::ostream& out) const;

  // Restores a snapshot written by any engine, whatever its shard count:
  // every element is re-routed by ShardFor(key) here, so a 4-shard node can
  // load a 2-shard peer's state.  Entries dedup/expire under the usual
  // RestoreElement rules.  Throws std::runtime_error on malformed input.
  SnapshotStats LoadSnapshot(std::istream& in);

  // Re-admits one fully-populated SE into its owning shard, preserving
  // accumulated metadata (LoadSnapshot's per-element path).
  std::optional<SeId> RestoreElement(SemanticElement se);

  // Installs the ground-truth fetch used by recalibration ticks (query ->
  // ground-truth result; a real remote call in production, the workload
  // oracle here).  Must be thread-safe; it runs on the housekeeping thread
  // while the shard's exclusive lock is held.
  void SetGroundTruthFetcher(std::function<std::string(std::string_view)> fn);

  // Runs one recalibration round on every shard immediately (the
  // housekeeping thread's tick, callable by hand in tests/benches).
  // Returns the number of shards whose tau changed.
  std::size_t RecalibrateAllShards();

  double Now() const { return clock_(); }
  std::size_t num_shards() const noexcept { return shards_.size(); }
  std::size_t ShardFor(std::string_view query) const;

  // The registry this engine publishes into (the injected one, or the
  // engine-owned default).  Valid for the engine's lifetime.
  telemetry::MetricRegistry* registry() const noexcept { return registry_; }

  // Per-tenant quotas, budgets, and bounded-cardinality telemetry.  Owned
  // by the engine; valid for its lifetime.  The server consults it for
  // rate-quota admission; tests configure quotas through it.
  tenant::TenantRegistry* tenant_registry() const noexcept {
    return tenant_registry_.get();
  }

  // The capacity share one shard's cache enforces (total / num_shards) —
  // the base against which per-tenant budget fractions apply.
  double per_shard_capacity_tokens() const noexcept {
    return per_shard_capacity_;
  }

  ConcurrentEngineStats Stats() const;

  // Shard-by-shard locked aggregates (consistent per shard, not globally).
  CacheCounters TotalCounters() const;
  std::size_t TotalSize() const;
  double TotalUsageTokens() const;
  double tau_lsm(std::size_t shard) const;

  // Stops the housekeeping thread (idempotent; the destructor calls it).
  void StopHousekeeping();

 private:
  // Test-only access to a shard's cache and published snapshot; defined
  // in the engine's tests, not part of the serving API.
  friend class ConcurrentEngineTestPeer;

  struct Shard {
    mutable RankedSharedMutex mu{LockRank::kEngineShard, "shard.mu"};
    std::unique_ptr<SemanticCache> cache GUARDED_BY(mu) PT_GUARDED_BY(mu);
    Recalibrator recalibrator GUARDED_BY(mu);
    Rng rng GUARDED_BY(mu);

    // --- Lock-free probe state (DESIGN.md §13) ---------------------------
    // The currently published snapshot.  Readers load it seq_cst inside an
    // EpochReadGuard; `probe` exchanges it seq_cst under the exclusive
    // lock and parks the old header in its limbo (the epoch contract
    // requires seq_cst on both sides).  nullptr until the first publish
    // (readers treat that as an empty shard).
    std::atomic<const ShardSnapshot*> snapshot{nullptr};
    // Scan slab, chunk spine and records behind `snapshot`.
    SnapshotWriter probe GUARDED_BY(mu);
    // The cache's change feed: ids touched since the last SyncProbeState.
    std::vector<SeId> changed GUARDED_BY(mu);
    // The cache's retire sink: SEs removed since the last SyncProbeState,
    // which published records may still borrow from.
    std::vector<SemanticCache::RetiredElement> retired GUARDED_BY(mu);

    // Per-shard registry handles (cortex_engine_shard<i>_*).  The
    // instruments are internally thread-safe; no lock needed to update.
    telemetry::Counter* hits = nullptr;
    telemetry::Counter* misses = nullptr;
    telemetry::Counter* judger_rejects = nullptr;
    telemetry::Counter* evictions = nullptr;

    Shard(std::unique_ptr<SemanticCache> c, RecalibratorOptions ropts,
          std::uint64_t seed, std::size_t dim)
        : cache(std::move(c)), recalibrator(ropts), rng(seed), probe(dim) {}
  };

  // Waits on hk_cv_ through a std::unique_lock, which clang's analysis
  // cannot see through — excluded from analysis, lock order still
  // machine-checked by RankedMutex.
  void HousekeepingLoop() NO_THREAD_SAFETY_ANALYSIS;
  bool RecalibrateShard(Shard& shard) EXCLUDES(fetch_gt_mu_);

  // Republishes the shard's snapshot for the ids its cache reported since
  // the last call (and for moved Sine thresholds).  Callers hold the
  // exclusive lock and invoke this after EVERY mutation that can change
  // probe results — insert, restore, TTL purge, recalibration.
  // CommitLookup deliberately does not: frequency/last_access are not
  // probe-relevant.
  void SyncProbeState(Shard& shard) REQUIRES(shard.mu);
  // Per-stage wall time of one probe, filled only for traced lookups.
  struct ProbeTiming {
    double embed_seconds = 0.0;
    double ann_seconds = 0.0;
    double judger_seconds = 0.0;
  };
  // The work one probe did: snapshot rows it scored in the i8 scan and
  // pool candidates it exact-reranked in fp32.
  struct ProbeWork {
    std::size_t rows_scanned = 0;
    std::size_t rerank_candidates = 0;
  };

  // The epoch-protected probe (phases 1+2); returns the LookupResult
  // SemanticCache::Lookup would over a flat index of the shard's entries,
  // before its purge and commit.  `timing` and `work` may be null.
  // Takes no shard lock.
  SemanticCache::LookupResult LockFreeProbe(Shard& shard,
                                            std::string_view query,
                                            double now,
                                            std::string_view tenant,
                                            ProbeTiming* timing,
                                            ProbeWork* work);

  // Publishes what changed inside a shard mutation (insert / purge):
  // cache-layer counter deltas plus resident-size gauge deltas.
  void ApplyCacheDeltas(Shard& shard, const CacheCounters& before,
                        const CacheCounters& after, double usage_delta,
                        double entries_delta);

  const HashedEmbedder* const embedder_;
  const JudgerModel* const judger_;
  const Tokenizer tokenizer_;
  const ConcurrentEngineOptions options_;
  const std::function<double()> clock_;

  // Grace-period tracker for the shards' limbo (snapshot headers, chunks,
  // records, rows).  Declared before shards_ so it outlives them.
  EpochDomain epoch_;

  std::unique_ptr<telemetry::MetricRegistry> registry_owned_;
  telemetry::MetricRegistry* registry_ = nullptr;
  // Set once in the constructor, internally synchronized (rank 60 mutex).
  std::unique_ptr<tenant::TenantRegistry> tenant_registry_;  // cortex-analyzer: allow(guarded-by)
  // Derived from options_ in the constructor, immutable afterwards.
  double per_shard_capacity_ = 0.0;  // cortex-analyzer: allow(guarded-by)

  // Engine-layer instruments (cortex_engine_*).
  telemetry::Counter* lookups_ = nullptr;
  telemetry::Counter* hits_ = nullptr;
  telemetry::Counter* misses_ = nullptr;
  telemetry::Counter* judger_rejects_ = nullptr;
  telemetry::Counter* inserts_ = nullptr;
  telemetry::Counter* insert_rejects_ = nullptr;
  telemetry::Counter* expired_removed_ = nullptr;
  telemetry::Counter* housekeeping_runs_ = nullptr;
  telemetry::Counter* recalibrations_ = nullptr;
  // Work per committed lookup (Peek counts nothing): rows scanned and
  // candidates reranked, summed over lookups.
  telemetry::Counter* rows_scanned_ = nullptr;
  telemetry::Counter* rerank_candidates_ = nullptr;
  telemetry::AtomicHistogram* probe_seconds_ = nullptr;
  telemetry::AtomicHistogram* commit_seconds_ = nullptr;
  telemetry::AtomicHistogram* insert_seconds_ = nullptr;

  // Cache-layer instruments (cortex_cache_*), fed by before/after deltas
  // of each shard's CacheCounters so SemanticCache itself stays
  // telemetry-free.
  telemetry::Counter* cache_evictions_ = nullptr;
  telemetry::Counter* cache_ttl_expiries_ = nullptr;
  telemetry::Counter* cache_dedup_refreshes_ = nullptr;
  telemetry::Counter* cache_admission_rejects_ = nullptr;
  telemetry::Counter* cache_rejected_too_large_ = nullptr;
  telemetry::Counter* cache_budget_rejects_ = nullptr;
  telemetry::Counter* cache_promotions_ = nullptr;
  telemetry::Gauge* cache_tokens_resident_ = nullptr;
  telemetry::Gauge* cache_entries_ = nullptr;

  // Shard set is created in the constructor and structurally immutable
  // afterwards; all mutable per-shard state is guarded by shard.mu.
  std::vector<std::unique_ptr<Shard>> shards_;  // cortex-analyzer: allow(guarded-by)

  RankedMutex fetch_gt_mu_{LockRank::kEngineGroundTruth,
                           "engine.fetch_gt_mu"};
  std::function<std::string(std::string_view)> fetch_gt_
      GUARDED_BY(fetch_gt_mu_);

  RankedMutex hk_mu_{LockRank::kEngineHousekeeping, "engine.hk_mu"};
  // condition_variable_any: waits through RankedMutex's lock/unlock, so
  // the held-rank stack stays correct across the wait.
  std::condition_variable_any hk_cv_;
  bool hk_stop_ GUARDED_BY(hk_mu_) = false;
  std::thread housekeeper_;
};

}  // namespace cortex::serve
