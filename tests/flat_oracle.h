// The exact-parity oracle for the serving engine's lock-free probe
// (DESIGN.md §13.4).  A shard's cache keeps no ANN index, so the
// reference is built on demand: a Sine over a kFlat index filled from the
// shard's entries, with the shard's live SineOptions and the visibility
// rule SemanticCache::Lookup applies.  Test-only; shared by the engine,
// resolver and data-client tests, with a few more test-only shard hooks.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "core/sine.h"
#include "serve/concurrent_engine.h"

namespace cortex::serve {

class ConcurrentEngineTestPeer {
 public:
  // Calls `fn` with shard `shard`'s cache and its published snapshot (null
  // before the first publish) under the shard's shared lock, so the two
  // are mutually consistent: writers publish and free snapshots only under
  // the exclusive lock, which also pins the snapshot without an epoch
  // guard.  `fn` must not call back into the engine.
  template <typename Fn>
  static void InspectShard(const ConcurrentShardedEngine& engine,
                           std::size_t shard, Fn&& fn) {
    const auto& s = *engine.shards_.at(shard);
    ReaderLock lock(s.mu);
    fn(*s.cache, s.snapshot.load(std::memory_order_seq_cst));
  }

  // Calls `fn(oracle)` under shard `shard`'s shared lock, where
  // oracle(query, tenant) returns the hit the flat path serves over the
  // shard's current entries at `now`: visible entries were created at or
  // before `now`, have not expired and belong to the shared pool or to
  // `tenant`.  `fn` must not call back into the engine.
  template <typename Fn>
  static void WithFlatOracle(const ConcurrentShardedEngine& engine,
                             std::size_t shard, double now, Fn&& fn) {
    InspectShard(engine, shard, [&](const SemanticCache& cache,
                                    const ShardSnapshot*) {
      Sine flat(engine.embedder_,
                MakeIndex(IndexType::kFlat, engine.embedder_->dimension()),
                engine.judger_, cache.sine().options());
      for (const auto& [id, se] : cache.entries()) flat.Insert(se);
      const auto oracle = [&](std::string_view query,
                              std::string_view tenant)
          -> std::optional<CacheHit> {
        const SineLookupResult r = flat.Lookup(
            query, flat.EmbedQuery(query),
            [&](SeId id) -> const SemanticElement* {
              const SemanticElement* se = cache.Get(id);
              return se != nullptr && se->created_at <= now &&
                             !se->ExpiredAt(now) &&
                             (se->tenant.empty() || se->tenant == tenant)
                         ? se
                         : nullptr;
            });
        if (!r.match) return std::nullopt;
        const SemanticElement& se = *cache.Get(r.match->id);
        return CacheHit{se.id, se.value, se.key, r.match->similarity,
                        r.match->judger_score};
      };
      fn(oracle);
    });
  }

  // Removes every entry whose key `doomed(key)` accepts, republishing each
  // shard's snapshot (tests that need a hole in the cache).  Returns the
  // number removed.  Cache-layer gauges are not updated.
  template <typename Pred>
  static std::size_t RemoveIf(ConcurrentShardedEngine& engine,
                              Pred&& doomed) {
    std::size_t removed = 0;
    for (auto& shard : engine.shards_) {
      WriterLock lock(shard->mu);
      std::vector<SeId> ids;
      for (const auto& [id, se] : shard->cache->entries()) {
        if (doomed(se.key)) ids.push_back(id);
      }
      for (const SeId id : ids) removed += shard->cache->Remove(id) ? 1 : 0;
      engine.SyncProbeState(*shard);
    }
    return removed;
  }

  // Judged samples waiting in shard `shard`'s recalibration log.
  static std::size_t JudgmentLogSize(const ConcurrentShardedEngine& engine,
                                     std::size_t shard) {
    const auto& s = *engine.shards_.at(shard);
    ReaderLock lock(s.mu);
    return s.recalibrator.log_size();
  }

  // One oracle probe on the shard that owns `query`.
  static std::optional<CacheHit> FlatOracle(
      const ConcurrentShardedEngine& engine, std::string_view query,
      double now, std::string_view tenant = {}) {
    std::optional<CacheHit> hit;
    WithFlatOracle(engine, engine.ShardFor(query), now,
                   [&](const auto& oracle) { hit = oracle(query, tenant); });
    return hit;
  }
};

}  // namespace cortex::serve
