// SemanticCache: the cache architecture layered on Sine (paper §4.3).
//
// Turns Sine's probabilistic matches into deterministic cache behaviour:
//   * a lookup is a *hit* only when a candidate passes both retrieval
//     stages — a hit increments the SE's confirmed frequency;
//   * capacity is bounded (in value tokens); admission evicts expired items
//     first (TTL purge), then the lowest-scoring items under the configured
//     eviction policy (LCFU by default, LRU/LFU for the Table-6 baselines);
//   * every entry carries a staticity-scaled TTL, so even high-value items
//     are periodically refreshed (§4.3's aging mechanism).
#pragma once

#include <compare>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/eviction.h"
#include "core/sine.h"
#include "util/count_min.h"

namespace cortex {

struct SemanticCacheOptions {
  // Capacity in value tokens; "cache ratio" benches set this to
  // ratio x workload knowledge footprint.
  double capacity_tokens = 50000.0;
  SineOptions sine;
  // TTL grows linearly with staticity: stat=1 -> min, stat=10 -> max.
  bool ttl_enabled = true;
  double min_ttl_sec = 600.0;
  double max_ttl_sec = 4.0 * 3600.0;

  // Admission doorkeeper (TinyLFU-style) — an answer to §3.2's open
  // question "how should admission operate".  When the cache is under
  // capacity pressure, newly fetched knowledge is only admitted once its
  // *value* has been fetched at least `admission_threshold` times within
  // the recent window (tracked by a count-min sketch, so semantically
  // equivalent queries that fetch the same knowledge count together).
  // One-hit-wonder fetches then stop evicting proven content.
  bool admission_enabled = false;
  std::uint32_t admission_threshold = 2;
  // Pressure point: admission control only engages above this fill level
  // (an underfull cache should take everything).
  double admission_pressure = 0.9;

  // Cross-tenant promotion (DESIGN.md §12): a byte-identical value
  // inserted (with shareable=true) by this many *distinct* tenants
  // graduates to the shared pool, where every tenant's lookups can match
  // it.  0 disables promotion entirely.
  std::size_t promote_distinct_tenants = 0;
  // Promotion additionally requires the value's staticity to be at least
  // this floor — volatile knowledge stays private even when popular.
  double promote_min_staticity = 0.0;
  // Bound on distinct values the promotion tracker follows at once; new
  // values stop accumulating evidence when it is full.
  std::size_t promote_tracker_capacity = 4096;
};

struct CacheHit {
  SeId id = 0;
  std::string value;
  std::string matched_key;
  double similarity = 0.0;
  double judger_score = 0.0;
};

struct CacheCounters {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t expirations = 0;
  std::uint64_t rejected_too_large = 0;
  std::uint64_t dedup_refreshes = 0;
  std::uint64_t admission_rejects = 0;
  // Inserts rejected because the value alone exceeds the tenant's budget.
  std::uint64_t budget_rejects = 0;
  // Private SEs retagged into the shared pool by cross-tenant promotion.
  std::uint64_t promotions = 0;

  double HitRate() const noexcept {
    return lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                   : 0.0;
  }
};

// Optional wall time spent on TTL purge + eviction inside an Insert.
struct InsertTiming {
  double evict_seconds = 0.0;
};

struct InsertRequest {
  std::string key;
  std::string value;
  // Pass the embedding if already computed during the miss lookup;
  // otherwise the cache embeds the key itself.
  std::optional<Vector> embedding;
  double staticity = 5.0;
  double retrieval_latency_sec = 0.0;
  double retrieval_cost_dollars = 0.0;
  // A prefetched SE enters with zero confirmed frequency (§4.3).
  std::uint64_t initial_frequency = 0;
  // Owning namespace; empty inserts straight into the shared pool.
  std::string tenant;
  // Privacy gate: may this value ever graduate to the shared pool?
  bool shareable = true;
  // Token budget for `tenant` (0 = unlimited).  Supplied by the serving
  // layer from the TenantRegistry; the core only enforces it, keeping
  // quota *policy* out of core/.
  double budget_tokens = 0.0;
};

class SemanticCache {
  // Victim-index order (DESIGN.md §12.2): lowest policy score first, then
  // least recently accessed, then lowest id.  std::strong_order keeps the
  // order total even for a NaN score or timestamp (a corrupt snapshot).
  struct VictimKey {
    double score = 0.0;
    double last_access = 0.0;
    SeId id = 0;
    friend bool operator<(const VictimKey& a, const VictimKey& b) noexcept {
      if (const auto c = std::strong_order(a.score, b.score); c != 0) {
        return c < 0;
      }
      if (const auto c = std::strong_order(a.last_access, b.last_access);
          c != 0) {
        return c < 0;
      }
      return a.id < b.id;
    }
    // For std::greater<>, which keeps the least key on top of a heap.
    friend bool operator>(const VictimKey& a, const VictimKey& b) noexcept {
      return b < a;
    }
  };
  // One namespace's victims: a lazy min-heap of keys (see victims_) and
  // the number of the namespace's resident entries.
  struct VictimHeap {
    std::vector<VictimKey> keys;
    std::size_t live = 0;
  };

 public:
  // `index` may be null, for a cache whose lookups are served elsewhere
  // (each cortexd shard probes its own epoch snapshot, fed by the change
  // feed below): writes then keep no stage-1 index, and Lookup
  // CHECK-fails.  Inserts, eviction, expiry and restores work the same
  // either way.
  SemanticCache(const Embedder* embedder, std::unique_ptr<VectorIndex> index,
                const JudgerModel* judger,
                std::unique_ptr<EvictionPolicy> eviction,
                SemanticCacheOptions options = {});

  struct LookupResult {
    std::optional<CacheHit> hit;
    // The query's embedding, reusable by an insert after a miss.
    Vector query_embedding;
    // Stage telemetry for latency modelling and recalibration logging.
    SineLookupResult sine;
  };

  // Two-stage semantic lookup at time `now`, scoped to `tenant`: only the
  // tenant's own namespace plus the shared pool can match, and entries
  // created after `now` stay invisible.  Purges expired entries first,
  // then commits the result (CommitLookup).
  LookupResult Lookup(std::string_view query, double now,
                      std::string_view tenant = {});

  // Counts a lookup (and hit) and bumps the matched SE's confirmed
  // frequency / last_access.  The serving engine probes its own snapshot
  // and commits here; the SE may have been evicted between probe and
  // commit, in which case the hit still counts — the caller served the
  // value — but the bump is skipped.
  void CommitLookup(const LookupResult& result, double now);

  // Inserts (evicting as needed); returns the new SE's id, or nullopt when
  // the value alone exceeds capacity.  Re-inserting an existing exact key
  // replaces that entry.  If an SE with a byte-identical value already
  // exists, the insert dedups onto it instead: the existing SE is
  // refreshed (frequency credited, TTL renewed) and its id returned —
  // re-fetching the same knowledge under a different phrasing must not
  // spend capacity twice.  `timing`, when non-null, receives the wall time
  // spent purging + evicting to make room.
  std::optional<SeId> Insert(InsertRequest request, double now,
                             InsertTiming* timing = nullptr);

  // Re-admits a fully-populated SE (e.g. from a snapshot), preserving its
  // accumulated metadata — frequency, timestamps, expiration — instead of
  // resetting it the way Insert does.  Subject to the usual capacity,
  // key-replace, value-dedup, and TTL rules; ids are reassigned.  An
  // embedding of the wrong length, or one that is not finite and
  // unit-norm, is recomputed from the key.
  std::optional<SeId> RestoreElement(SemanticElement se, double now);

  // Exact-key presence probe (Algorithm 3's Cache.Contains guard), scoped
  // to one namespace: the same key may exist independently per tenant.
  bool ContainsKey(std::string_view key, std::string_view tenant = {}) const;
  // Value-identity presence probe (is this knowledge already resident?).
  bool ContainsValue(std::string_view value) const;

  // TTL purge; returns the number of entries removed.  Pops only the due
  // entries off an expiry-ordered index, so a purge with nothing due costs
  // O(1) whatever the resident size.
  std::size_t RemoveExpired(double now);

  bool Remove(SeId id);
  const SemanticElement* Get(SeId id) const;

  // Per-namespace accounting (tokens resident / evictions suffered).  The
  // shared pool appears under the empty tenant id.
  struct TenantUsage {
    double tokens = 0.0;
    std::uint64_t evictions = 0;
  };
  TenantUsage TenantUsageFor(std::string_view tenant) const;
  const std::unordered_map<std::string, TenantUsage>& tenant_usage()
      const noexcept {
    return tenant_usage_;
  }

  std::size_t size() const noexcept { return store_.size(); }
  double usage_tokens() const noexcept { return usage_tokens_; }
  double capacity_tokens() const noexcept { return options_.capacity_tokens; }
  const CacheCounters& counters() const noexcept { return counters_; }
  const EvictionPolicy& eviction_policy() const noexcept { return *eviction_; }
  Sine& sine() noexcept { return sine_; }
  const Sine& sine() const noexcept { return sine_; }

  // Iteration support for diagnostics and tests.
  const std::unordered_map<SeId, SemanticElement>& entries() const noexcept {
    return store_;
  }

  // A removed entry's store node: owns the SemanticElement, unchanged.
  using RetiredElement = std::unordered_map<SeId, SemanticElement>::node_type;

  // Change feed.  When a sink is installed, every mutation appends the id
  // of each entry it added, removed, or whose probe fingerprint
  // (expiration_time, tenant) it changed — inserts, replaces, evictions,
  // expiries, dedup refreshes, promotions and restores.  An id may appear
  // more than once; frequency/last_access bumps are not reported.  The
  // serving engine installs one per shard to republish only what changed;
  // null (the default) costs nothing.
  void set_change_sink(std::vector<SeId>* sink) noexcept {
    change_sink_ = sink;
  }

  // Retire sink.  A resident SE's key, value and embedding are set once
  // when it is admitted and never change, and store nodes never move, so
  // another structure may borrow those bytes (string_view / span) for as
  // long as the entry lives.  Without a sink, a removed entry is destroyed
  // on the spot.  With one installed, every removal — eviction, TTL purge,
  // exact-key replace, a promotion that displaces a shared copy, an
  // explicit Remove — unlinks the entry from the cache and moves its store
  // node onto the sink instead: from then on the sink's owner owns the SE
  // and decides when to free it (its id is reported on the change feed in
  // the same call).  The serving engine installs one per shard so that the
  // snapshot records borrowing from an SE are freed together with it, once
  // no reader can hold them.  Null (the default) costs nothing.
  void set_retire_sink(std::vector<RetiredElement>* sink) noexcept {
    retire_sink_ = sink;
  }

 private:
  // Tenant-aware eviction: victims come from the offending tenant's own
  // namespace first, then from tenants over their recorded budget, then
  // the shared pool, and only as a last resort from within-budget
  // bystanders (keeps the capacity invariant when budgets oversubscribe
  // the shard).
  void EvictDownTo(double target_tokens, std::string_view offender);
  // Evicts within one tenant's namespace until its usage fits
  // `budget_tokens`; charged to that tenant's eviction count.
  void EvictTenantDownTo(const std::string& tenant, double budget_tokens);
  void RemoveInternal(SeId id, bool expired);
  // Victim-index maintenance.  Admit counts an entry into its namespace
  // and RemoveInternal out of it (UncountVictim); every change to an
  // entry's score inputs or namespace ends with PushVictim.
  VictimKey VictimKeyOf(const SemanticElement& se) const;
  bool IsCurrentVictim(const std::string& tenant, const VictimKey& key) const;
  void PushVictim(const SemanticElement& se);
  void UncountVictim(const std::string& tenant);
  // The least current key of `tenant`'s heap, popping stale keys above it.
  const VictimKey& TopVictim(const std::string& tenant, VictimHeap& heap);
  // Links a fully-populated SE (id assigned) into every index; returns
  // its id.
  SeId Admit(SemanticElement se, std::size_t value_hash);
  // Sets a resident entry's expiration, keeping expiry_ in step.
  void SetExpiration(SemanticElement& se, double expiration_time);
  // Pushes a resident entry's current expiration onto expiry_.
  void IndexExpiry(const SemanticElement& se);
  void NoteChanged(SeId id) {
    if (change_sink_ != nullptr) change_sink_->push_back(id);
  }
  // True when `tenant` may see (match / dedup onto) `se`.
  static bool VisibleTo(const SemanticElement& se,
                        std::string_view tenant) noexcept {
    return se.tenant.empty() || se.tenant == tenant;
  }

  Sine sine_;
  std::unique_ptr<EvictionPolicy> eviction_;
  SemanticCacheOptions options_;
  std::unordered_map<SeId, SemanticElement> store_;
  // Keyed by NamespacedKey(tenant, key): the same semantic key may exist
  // once per namespace.
  std::unordered_map<std::string, SeId> key_to_id_;
  // Value-identity dedup index: hash of value -> ids holding that hash
  // (hash collisions resolved by comparing the actual values).
  std::unordered_multimap<std::size_t, SeId> value_hash_to_id_;
  // Expiry index: a min-heap of (expiration_time, id), pushed whenever an
  // entry gets an expiration (a NaN one never compares due, so it is not
  // indexed).  An entry goes stale when its id is removed or re-expired;
  // RemoveExpired skips stale entries, and the heap is rebuilt from the
  // store once stale entries outnumber live ones.
  std::vector<std::pair<double, SeId>> expiry_;
  // Victim index: one heap per namespace (the empty tenant is the shared
  // pool) over every resident entry, pushed whenever an entry is admitted
  // or re-keyed.  An entry's score depends on the clock only through
  // expiry (EvictionPolicy's contract) and eviction always runs right
  // after RemoveExpired, so a key stays current until the entry's score
  // inputs change.  A key is current while its id is resident in that
  // namespace with exactly that key; older keys go stale and are popped
  // when they surface.  A heap is compacted once its stale keys outnumber
  // its live entries, and a namespace with no resident entries has no
  // heap, so eviction visits only non-empty namespaces.
  std::unordered_map<std::string, VictimHeap> victims_;
  std::vector<SeId>* change_sink_ = nullptr;
  std::vector<RetiredElement>* retire_sink_ = nullptr;
  double usage_tokens_ = 0.0;
  SeId next_id_ = 1;
  CacheCounters counters_;
  CountMinSketch admission_sketch_;
  // Per-namespace resident tokens + evictions suffered.
  std::unordered_map<std::string, TenantUsage> tenant_usage_;
  // Last budget seen per tenant (from InsertRequest::budget_tokens); lets
  // EvictDownTo identify over-budget tenants without a policy dependency.
  std::unordered_map<std::string, double> tenant_budget_;
  // Promotion evidence: value hash -> distinct shareable-inserting
  // tenants seen so far (bounded by promote_tracker_capacity).
  std::unordered_map<std::size_t, std::vector<std::string>> promote_seen_;
};

}  // namespace cortex
