// ToolResolver implementations — the serving configurations compared in
// the paper's evaluation (§6.1 "Baseline systems"):
//
//   VanillaResolver     Agent_vanilla: every tool call goes to the remote
//                       data service.
//   ExactCacheResolver  Agent_exact: a traditional exact-match KV cache in
//                       front of the service.
//   CortexResolver      Agent_Asteria (here: Agent_Cortex): the serving
//                       engine cortexd runs (two-stage retrieval over the
//                       shard snapshot, LCFU + TTL, recalibration) plus
//                       Markov prefetching beside it.  With the judger
//                       disabled in the engine options it doubles as the
//                       Agent_ANN ablation.
//
// Resolvers translate engine operations into virtual-clock latency: the
// embedder and judger run on the GPU co-location simulator, ANN search
// costs a CPU constant, and misses pay the remote service's WAN latency,
// rate limiting, and retries.  They live beside the serving engine (not in
// core/) because the paper's experiments run on it.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/exact_cache.h"
#include "core/prefetcher.h"
#include "gpu/colocation.h"
#include "net/remote_service.h"
#include "serve/concurrent_engine.h"
#include "sim/serving.h"
#include "workload/oracle.h"

namespace cortex {

// Shared wiring for all resolvers.  Borrowed pointers must outlive the
// resolver.
struct ResolverEnvironment {
  ColocationSimulator* gpu = nullptr;
  RemoteDataService* service = nullptr;
  const GroundTruthOracle* oracle = nullptr;
};

class VanillaResolver final : public ToolResolver {
 public:
  explicit VanillaResolver(ResolverEnvironment env) : env_(env) {}

  void Resolve(Simulation& sim, const ToolStep& step, std::uint64_t task_id,
               ResolveCallback done) override;
  std::string name() const override { return "vanilla"; }

 private:
  ResolverEnvironment env_;
};

class ExactCacheResolver final : public ToolResolver {
 public:
  ExactCacheResolver(ResolverEnvironment env, ExactCacheOptions options);

  void Resolve(Simulation& sim, const ToolStep& step, std::uint64_t task_id,
               ResolveCallback done) override;
  std::string name() const override { return "exact"; }

  const ExactCache& cache() const noexcept { return cache_; }

 private:
  ResolverEnvironment env_;
  ExactCache cache_;
  // Local KV lookup cost (an in-memory store, microseconds-to-millisecond).
  double lookup_seconds_ = 0.001;
};

struct CortexResolverOptions {
  // CPU-side ANN search latency added to every lookup (the paper measures
  // ~0.02 s total cache retrieval; embedding runs on the GPU separately).
  double ann_search_seconds = 0.015;
  // Markov prefetching (Algorithm 3), keyed by the task as the session.
  bool prefetch_enabled = true;
  PrefetcherOptions prefetch;
  // Attribute background traffic (prefetch fetches, recalibration GT
  // fetches) to the triggering request's outcome counters.
  bool count_background_calls = true;
  // Single-flight: concurrent misses share an in-flight remote fetch
  // instead of stampeding the service.  Exact-string matches always
  // coalesce; with semantic coalescing enabled, a miss also joins a fetch
  // for a *semantically equivalent* in-flight query (validated by the same
  // ANN-similarity + judger pipeline as cache hits).  Matters under bursty
  // load, where a hot topic's paraphrases arrive faster than one fetch
  // round trip.
  bool coalesce_inflight = true;
  bool semantic_coalescing = true;
  // Prefetches are optional traffic: skip them when the remote service's
  // quota bucket is nearly drained, so speculation never starves foreground
  // misses of rate-limit tokens.
  double prefetch_min_quota = 3.0;
};

// Serves tool calls from a one-shard ConcurrentShardedEngine that it owns.
// The engine reads the simulation's clock and runs no housekeeping thread:
// the resolver purges expired entries before each lookup and ticks
// recalibration every engine_options.recalibration_interval_sec (<= 0
// disables), with ground-truth fetches charged to the request that
// triggered the tick.
class CortexResolver final : public ToolResolver {
 public:
  // embedder/judger are borrowed and must outlive the resolver; the
  // embedder must be IDF-fitted.  The resolver overrides num_shards,
  // clock and housekeeping_interval_sec in `engine_options`.
  CortexResolver(ResolverEnvironment env, const HashedEmbedder* embedder,
                 const JudgerModel* judger,
                 serve::ConcurrentEngineOptions engine_options,
                 CortexResolverOptions options = {});

  void Resolve(Simulation& sim, const ToolStep& step, std::uint64_t task_id,
               ResolveCallback done) override;
  std::string name() const override {
    return engine_->options().cache.sine.use_judger ? "cortex" : "ann-only";
  }

  serve::ConcurrentShardedEngine& engine() noexcept { return *engine_; }
  std::uint64_t prefetch_issued() const noexcept { return prefetch_issued_; }
  std::uint64_t recalibration_rounds() const noexcept {
    return recalibration_rounds_;
  }
  std::uint64_t coalesced_requests() const noexcept { return coalesced_; }
  std::uint64_t prefetches_skipped_for_quota() const noexcept {
    return prefetch_skipped_quota_;
  }

 private:
  struct Waiter {
    ResolveCallback done;
    ResolveOutcome outcome;  // partially filled (cache-check accounting)
    double enqueued_at = 0.0;
    std::string query;  // the waiter's own query (correctness is checked
                        // against it, not the leader's)
  };
  struct InflightFetch {
    Vector embedding;  // of the fetching query, for semantic coalescing
    std::vector<Waiter> waiters;
  };

  // Finds an in-flight fetch this query may legitimately wait on: the
  // exact string, or (if enabled) a semantically equivalent query that
  // passes the judger.  Returns nullptr if none.
  InflightFetch* FindCoalesceTarget(std::string_view query,
                                    const Vector& embedding, double now);

  void MaybeRecalibrate(Simulation& sim, ResolveOutcome& outcome);
  void IssuePrefetches(Simulation& sim,
                       const std::vector<Prediction>& predictions,
                       ResolveOutcome& outcome);

  ResolverEnvironment env_;
  CortexResolverOptions options_;
  // The engine's clock: the simulation time of the event being handled,
  // set before every engine call.
  double now_ = 0.0;
  std::unique_ptr<serve::ConcurrentShardedEngine> engine_;
  MarkovPrefetcher prefetcher_;
  double next_recalibration_ = 0.0;
  std::uint64_t prefetch_issued_ = 0;
  std::uint64_t recalibration_rounds_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t prefetch_skipped_quota_ = 0;
  // Single-flight registry: query string -> in-flight fetch state.
  std::unordered_map<std::string, InflightFetch> inflight_;
};

}  // namespace cortex
