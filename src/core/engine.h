// CortexEngine: the assembled cache engine — SemanticCache (Sine + LCFU +
// TTL) plus the Markov prefetcher and the threshold recalibrator.  This is
// the pure-logic core, independent of the simulation: the resolver layer
// (core/resolvers.h) binds it to the virtual clock, the GPU simulator, and
// the remote services.
#pragma once

#include <deque>
#include <memory>
#include <string>

#include "core/prefetcher.h"
#include "core/recalibrator.h"
#include "core/semantic_cache.h"

namespace cortex {

enum class IndexType { kFlat, kIvf, kHnsw };
enum class EvictionKind { kLcfu, kLru, kLfu };

struct CortexEngineOptions {
  SemanticCacheOptions cache;
  IndexType index_type = IndexType::kFlat;
  EvictionKind eviction = EvictionKind::kLcfu;

  bool prefetch_enabled = true;
  PrefetcherOptions prefetch;

  bool recalibration_enabled = true;
  RecalibratorOptions recalibration;
  double recalibration_interval_sec = 60.0;

  // Decision tracing: keep a ring buffer of the last N lookup decisions
  // (stage-1 candidates, judger scores, outcome) for debugging "why did
  // this miss?".  Zero disables tracing.
  std::size_t decision_trace_size = 0;

  // CPU-side ANN search latency added to every lookup (the paper measures
  // ~0.02 s total cache retrieval; embedding runs on the GPU separately).
  double ann_search_seconds = 0.015;
};

std::unique_ptr<VectorIndex> MakeIndex(IndexType type, std::size_t dimension);
std::unique_ptr<EvictionPolicy> MakeEviction(EvictionKind kind);

class CortexEngine {
 public:
  // embedder/judger are borrowed and must outlive the engine.
  CortexEngine(const Embedder* embedder, const JudgerModel* judger,
               CortexEngineOptions options = {});

  struct LookupOutcome {
    SemanticCache::LookupResult cache;   // hit/miss + stage telemetry
    std::vector<Prediction> prefetches;  // proposals for this step
  };

  // One traced lookup decision (when decision_trace_size > 0).
  struct DecisionRecord {
    double time = 0.0;
    std::string query;
    std::size_t ann_candidates = 0;
    std::size_t judger_calls = 0;
    bool hit = false;
    std::string matched_key;     // empty on miss
    double best_similarity = 0.0;
    double best_judger_score = 0.0;
  };

  // Full lookup path: semantic match, judgment logging, prefetch-stream
  // recording, and prefetch proposals (on both hits and misses — the
  // stream is the sequence of validated queries).  `session_id` keys the
  // prefetch stream so concurrent agent sessions do not interleave.
  LookupOutcome Lookup(std::string_view query, double now,
                       std::uint64_t session_id = 0);

  // Inserts knowledge fetched on a miss; scores staticity via the judger.
  std::optional<SeId> InsertFetched(std::string_view query, std::string value,
                                    std::optional<Vector> embedding,
                                    double retrieval_latency_sec,
                                    double retrieval_cost_dollars, double now);

  // Inserts a speculative prefetch (enters with zero frequency).
  std::optional<SeId> InsertPrefetched(std::string_view query,
                                       std::string value,
                                       double retrieval_latency_sec,
                                       double retrieval_cost_dollars,
                                       double now);

  // Runs one recalibration round and applies the new threshold.
  RecalibrationRound Recalibrate(
      const std::function<std::string(std::string_view)>& fetch_gt, Rng& rng);

  // The most recent traced decisions, oldest first.
  const std::deque<DecisionRecord>& decision_trace() const noexcept {
    return decision_trace_;
  }

  SemanticCache& cache() noexcept { return cache_; }
  const SemanticCache& cache() const noexcept { return cache_; }
  MarkovPrefetcher& prefetcher() noexcept { return prefetcher_; }
  Recalibrator& recalibrator() noexcept { return recalibrator_; }
  const CortexEngineOptions& options() const noexcept { return options_; }
  const JudgerModel* judger() const noexcept { return judger_; }

 private:
  CortexEngineOptions options_;
  const JudgerModel* judger_;
  SemanticCache cache_;
  MarkovPrefetcher prefetcher_;
  Recalibrator recalibrator_;
  std::deque<DecisionRecord> decision_trace_;
};

}  // namespace cortex
