// Shared fixtures for the core-layer tests: a small topic universe with a
// ground-truth oracle, plus embedder/judger instances wired to it.
#pragma once

#include <memory>

#include "embedding/hashed_embedder.h"
#include "embedding/simd_kernels.h"
#include "llm/judger_model.h"
#include "workload/oracle.h"
#include "workload/topic_universe.h"

namespace cortex::testing {

struct MiniWorld {
  explicit MiniWorld(std::size_t num_topics = 40, std::uint64_t seed = 7) {
    TopicUniverseOptions opts;
    opts.num_topics = num_topics;
    opts.paraphrases_per_topic = 6;
    opts.trap_fraction = 0.2;
    opts.seed = seed;
    universe = std::make_unique<TopicUniverse>(opts);
    oracle = std::make_unique<GroundTruthOracle>(universe.get());
    RegisterAllParaphrases(*oracle, *universe);
    // Fit the embedder's IDF weights on the query corpus, as every serving
    // stack does — Sine's default thresholds are calibrated for this.
    std::vector<std::string> corpus;
    for (const auto& t : universe->topics()) {
      corpus.insert(corpus.end(), t.paraphrases.begin(),
                    t.paraphrases.end());
    }
    embedder.FitIdf(corpus);
    // Unit tests want per-pair decisions to be predictable, so the fixture
    // judger uses less evidence noise than the default (integration tests
    // exercise the noisy default).
    JudgerOptions jopts;
    jopts.noise_sigma = 0.5;
    judger = std::make_unique<JudgerModel>(oracle.get(), jopts);
  }

  const Topic& topic(std::size_t i) const { return universe->topic(i); }
  const std::string& query(std::size_t topic_id, std::size_t i = 0) const {
    return universe->topic(topic_id).paraphrases.at(i);
  }
  const std::string& answer(std::size_t topic_id) const {
    return universe->topic(topic_id).answer;
  }

  std::unique_ptr<TopicUniverse> universe;
  std::unique_ptr<GroundTruthOracle> oracle;
  HashedEmbedder embedder;
  std::unique_ptr<JudgerModel> judger;
};

// Forces a kernel variant for one scope and restores the previously active
// one on exit, so a failing assertion cannot leak a forced variant into
// later tests.
class ScopedVariant {
 public:
  explicit ScopedVariant(simd::Variant v) : prev_(simd::ActiveVariant()) {
    forced_ = simd::ForceVariant(v);
  }
  ~ScopedVariant() { simd::ForceVariant(prev_); }
  ScopedVariant(const ScopedVariant&) = delete;
  ScopedVariant& operator=(const ScopedVariant&) = delete;
  bool forced() const noexcept { return forced_; }

 private:
  simd::Variant prev_;
  bool forced_ = false;
};

}  // namespace cortex::testing
