#include "core/engine.h"

#include <algorithm>

#include "ann/flat_index.h"
#include "ann/hnsw_index.h"
#include "ann/ivf_index.h"

namespace cortex {

std::unique_ptr<VectorIndex> MakeIndex(IndexType type, std::size_t dimension) {
  switch (type) {
    case IndexType::kFlat:
      return std::make_unique<FlatIndex>(dimension);
    case IndexType::kIvf:
      return std::make_unique<IvfIndex>(dimension);
    case IndexType::kHnsw:
      return std::make_unique<HnswIndex>(dimension);
  }
  return std::make_unique<FlatIndex>(dimension);
}

std::unique_ptr<EvictionPolicy> MakeEviction(EvictionKind kind) {
  switch (kind) {
    case EvictionKind::kLcfu:
      return std::make_unique<LcfuPolicy>();
    case EvictionKind::kLru:
      return std::make_unique<LruPolicy>();
    case EvictionKind::kLfu:
      return std::make_unique<LfuPolicy>();
  }
  return std::make_unique<LcfuPolicy>();
}

CortexEngine::CortexEngine(const Embedder* embedder, const JudgerModel* judger,
                           CortexEngineOptions options)
    : options_(options),
      judger_(judger),
      cache_(embedder, MakeIndex(options.index_type, embedder->dimension()),
             judger, MakeEviction(options.eviction), options.cache),
      prefetcher_(options.prefetch),
      recalibrator_(options.recalibration) {}

CortexEngine::LookupOutcome CortexEngine::Lookup(std::string_view query,
                                                 double now,
                                                 std::uint64_t session_id) {
  LookupOutcome outcome;
  outcome.cache = cache_.Lookup(query, now);

  if (options_.decision_trace_size > 0) {
    DecisionRecord record;
    record.time = now;
    record.query = std::string(query);
    record.ann_candidates = outcome.cache.sine.ann_candidates;
    record.judger_calls = outcome.cache.sine.judger_calls;
    record.hit = outcome.cache.hit.has_value();
    if (outcome.cache.hit) {
      record.matched_key = outcome.cache.hit->matched_key;
      record.best_similarity = outcome.cache.hit->similarity;
      record.best_judger_score = outcome.cache.hit->judger_score;
    } else {
      for (const auto& judged : outcome.cache.sine.judged) {
        record.best_similarity =
            std::max(record.best_similarity, judged.similarity);
        record.best_judger_score =
            std::max(record.best_judger_score, judged.judger_score);
      }
    }
    decision_trace_.push_back(std::move(record));
    while (decision_trace_.size() > options_.decision_trace_size) {
      decision_trace_.pop_front();
    }
  }

  // Log every judged candidate so the recalibrator sees scores on both
  // sides of the threshold.
  for (const auto& judged : outcome.cache.sine.judged) {
    if (const SemanticElement* se = cache_.Get(judged.id)) {
      recalibrator_.LogJudgment(
          {std::string(query), se->key, se->value, judged.judger_score});
    }
  }

  // Prefetch stream: the canonical key of the knowledge this query resolved
  // to (the matched SE's key on a hit, the query itself on a miss — the
  // miss path will insert it under that key).
  if (options_.prefetch_enabled) {
    const std::string canonical = outcome.cache.hit
                                      ? outcome.cache.hit->matched_key
                                      : std::string(query);
    prefetcher_.Record(session_id, canonical);
    for (auto& p : prefetcher_.Predict(canonical)) {
      if (!cache_.ContainsKey(p.query)) {
        outcome.prefetches.push_back(std::move(p));
      }
    }
  }
  return outcome;
}

std::optional<SeId> CortexEngine::InsertFetched(
    std::string_view query, std::string value, std::optional<Vector> embedding,
    double retrieval_latency_sec, double retrieval_cost_dollars, double now) {
  InsertRequest req;
  req.key = std::string(query);
  req.value = std::move(value);
  req.embedding = std::move(embedding);
  req.staticity = judger_ ? judger_->ScoreStaticity(query, req.value) : 5.0;
  req.retrieval_latency_sec = retrieval_latency_sec;
  req.retrieval_cost_dollars = retrieval_cost_dollars;
  req.initial_frequency = 1;  // a demanded fetch has one confirmed use
  return cache_.Insert(std::move(req), now);
}

std::optional<SeId> CortexEngine::InsertPrefetched(
    std::string_view query, std::string value, double retrieval_latency_sec,
    double retrieval_cost_dollars, double now) {
  InsertRequest req;
  req.key = std::string(query);
  req.value = std::move(value);
  req.staticity = judger_ ? judger_->ScoreStaticity(query, req.value) : 5.0;
  req.retrieval_latency_sec = retrieval_latency_sec;
  req.retrieval_cost_dollars = retrieval_cost_dollars;
  req.initial_frequency = 0;  // speculative: must earn its keep (§4.3)
  return cache_.Insert(std::move(req), now);
}

RecalibrationRound CortexEngine::Recalibrate(
    const std::function<std::string(std::string_view)>& fetch_gt, Rng& rng) {
  RecalibrationRound round = recalibrator_.RunRound(fetch_gt, rng);
  if (round.new_tau) {
    cache_.sine().set_tau_lsm(*round.new_tau);
  }
  return round;
}

}  // namespace cortex
