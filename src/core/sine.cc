#include "core/sine.h"

#include "util/check.h"

namespace cortex {

Sine::Sine(const Embedder* embedder, std::unique_ptr<VectorIndex> index,
           const JudgerModel* judger, SineOptions options)
    : embedder_(embedder),
      index_(std::move(index)),
      judger_(judger),
      options_(options) {
  CHECK(embedder_ != nullptr);
  CHECK(!options_.use_judger || judger_ != nullptr)
      << "use_judger requires a judger model";
}

Vector Sine::EmbedQuery(std::string_view query) const {
  return embedder_->Embed(query);
}

SineLookupResult Sine::Lookup(std::string_view query,
                              const Vector& query_embedding,
                              const SeAccessor& get_se) const {
  CHECK(index_ != nullptr)
      << "Sine::Lookup without an index: a cache built with a null index"
         " cannot Lookup";
  SineLookupResult result;
  const auto candidates =
      index_->Search(query_embedding, options_.top_k, options_.tau_sim);
  result.ann_candidates = candidates.size();

  if (!options_.use_judger) {
    // Agent_ANN ablation: top similarity wins outright.
    for (const auto& c : candidates) {
      if (c.similarity < options_.ann_only_threshold) continue;
      if (get_se(c.id) == nullptr) continue;
      result.match = SineCandidate{c.id, c.similarity, 0.0};
      break;  // candidates are sorted best-first
    }
    return result;
  }

  // Candidates arrive best-first; validation short-circuits on the first
  // acceptance.  Judging every survivor would multiply judger load (and
  // with it the latency of every hit) for marginal precision gain.
  for (const auto& c : candidates) {
    const SemanticElement* se = get_se(c.id);
    if (se == nullptr) continue;
    JudgeRequest req;
    req.query = query;
    req.cached_query = se->key;
    req.cached_result = se->value;
    req.embedding_similarity = c.similarity;
    const double score = judger_->Judge(req);
    ++result.judger_calls;
    result.judged.push_back({c.id, c.similarity, score});
    if (score >= options_.tau_lsm) {
      result.match = SineCandidate{c.id, c.similarity, score};
      break;
    }
  }
  return result;
}

void Sine::Insert(const SemanticElement& se) {
  if (index_ != nullptr) index_->Add(se.id, se.embedding);
}

void Sine::Remove(SeId id) {
  if (index_ != nullptr) index_->Remove(id);
}

}  // namespace cortex
