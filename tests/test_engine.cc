#include "core/engine.h"

#include <gtest/gtest.h>

#include "test_helpers.h"

namespace cortex {
namespace {

using cortex::testing::MiniWorld;

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() { Rebuild({}); }

  void Rebuild(CortexEngineOptions options) {
    if (options.cache.capacity_tokens ==
        SemanticCacheOptions{}.capacity_tokens) {
      options.cache.capacity_tokens = 1e6;
    }
    options.recalibration_enabled = false;  // exercised separately
    engine_ = std::make_unique<CortexEngine>(&world_.embedder,
                                             world_.judger.get(), options);
  }

  MiniWorld world_;
  std::unique_ptr<CortexEngine> engine_;
};

TEST_F(EngineTest, FactoriesProduceAllVariants) {
  EXPECT_NE(MakeIndex(IndexType::kFlat, 16), nullptr);
  EXPECT_NE(MakeIndex(IndexType::kIvf, 16), nullptr);
  EXPECT_NE(MakeIndex(IndexType::kHnsw, 16), nullptr);
  EXPECT_EQ(MakeEviction(EvictionKind::kLcfu)->name(), "lcfu");
  EXPECT_EQ(MakeEviction(EvictionKind::kLru)->name(), "lru");
  EXPECT_EQ(MakeEviction(EvictionKind::kLfu)->name(), "lfu");
}

TEST_F(EngineTest, MissThenInsertThenSemanticHit) {
  auto miss = engine_->Lookup(world_.query(0, 0), 0.0);
  EXPECT_FALSE(miss.cache.hit.has_value());

  const auto id = engine_->InsertFetched(
      world_.query(0, 0), world_.answer(0),
      std::move(miss.cache.query_embedding), 0.4, 0.005, 0.5);
  ASSERT_TRUE(id.has_value());

  const auto hit = engine_->Lookup(world_.query(0, 3), 1.0, /*session=*/1);
  ASSERT_TRUE(hit.cache.hit.has_value());
  EXPECT_EQ(hit.cache.hit->value, world_.answer(0));
}

TEST_F(EngineTest, InsertFetchedScoresStaticityViaJudger) {
  engine_->InsertFetched(world_.query(0, 0), world_.answer(0), std::nullopt,
                         0.4, 0.005, 0.0);
  const auto& entries = engine_->cache().entries();
  ASSERT_EQ(entries.size(), 1u);
  const auto& se = entries.begin()->second;
  // The judger estimates staticity near the oracle truth (bounded noise).
  EXPECT_NEAR(se.staticity, world_.topic(0).staticity, 4.0);
  EXPECT_EQ(se.frequency, 1u);
  EXPECT_DOUBLE_EQ(se.retrieval_latency_sec, 0.4);
}

TEST_F(EngineTest, PrefetchedEntersWithZeroFrequency) {
  const auto id = engine_->InsertPrefetched(world_.query(1, 0),
                                            world_.answer(1), 0.3, 0.005, 0.0);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(engine_->cache().Get(*id)->frequency, 0u);
}

TEST_F(EngineTest, LookupLogsJudgmentsForRecalibration) {
  engine_->InsertFetched(world_.query(0, 0), world_.answer(0), std::nullopt,
                         0.4, 0.005, 0.0);
  EXPECT_EQ(engine_->recalibrator().log_size(), 0u);
  engine_->Lookup(world_.query(0, 2), 1.0);
  EXPECT_GE(engine_->recalibrator().log_size(), 1u);
}

TEST_F(EngineTest, PrefetchProposalsAfterLearnedTransitions) {
  CortexEngineOptions opts;
  opts.prefetch.min_observations = 2;
  opts.prefetch.confidence_threshold = 0.5;
  Rebuild(opts);
  // Teach the engine q0 -> q1 through repeated sessions, with topic 1
  // evicted/absent so a prefetch is actually useful.
  const std::string q0 = world_.query(0, 0);
  const std::string q1 = world_.query(1, 0);
  for (std::uint64_t session = 0; session < 4; ++session) {
    engine_->Lookup(q0, session * 10.0, session);
    engine_->Lookup(q1, session * 10.0 + 1.0, session);
  }
  // Next session: after q0, the engine should propose prefetching q1
  // (q1 was never inserted, so it is not cached).
  const auto outcome = engine_->Lookup(q0, 100.0, /*session=*/99);
  ASSERT_FALSE(outcome.prefetches.empty());
  EXPECT_EQ(outcome.prefetches[0].query, q1);
  EXPECT_GE(outcome.prefetches[0].probability, 0.5);
}

TEST_F(EngineTest, NoPrefetchProposalWhenTargetCached) {
  CortexEngineOptions opts;
  opts.prefetch.min_observations = 2;
  Rebuild(opts);
  const std::string q0 = world_.query(0, 0);
  const std::string q1 = world_.query(1, 0);
  engine_->InsertFetched(q1, world_.answer(1), std::nullopt, 0.3, 0.005, 0.0);
  for (std::uint64_t session = 0; session < 4; ++session) {
    engine_->Lookup(q0, session * 10.0, session);
    engine_->Lookup(q1, session * 10.0 + 1.0, session);
  }
  const auto outcome = engine_->Lookup(q0, 100.0, /*session=*/99);
  EXPECT_TRUE(outcome.prefetches.empty());
}

TEST_F(EngineTest, PrefetchDisabledProposesNothing) {
  CortexEngineOptions opts;
  opts.prefetch_enabled = false;
  Rebuild(opts);
  const std::string q0 = world_.query(0, 0);
  const std::string q1 = world_.query(1, 0);
  for (std::uint64_t session = 0; session < 6; ++session) {
    engine_->Lookup(q0, session * 10.0, session);
    engine_->Lookup(q1, session * 10.0 + 1.0, session);
  }
  EXPECT_TRUE(engine_->Lookup(q0, 100.0, 99).prefetches.empty());
}

TEST_F(EngineTest, RecalibrateAppliesNewThreshold) {
  // Seed the log with clearly-separated judgments.
  engine_->InsertFetched(world_.query(0, 0), world_.answer(0), std::nullopt,
                         0.4, 0.005, 0.0);
  for (int i = 0; i < 30; ++i) {
    engine_->Lookup(world_.query(0, i % 6), static_cast<double>(i));
  }
  ASSERT_GT(engine_->recalibrator().log_size(), 0u);
  Rng rng(1);
  auto fetch_gt = [&](std::string_view q) {
    return world_.oracle->ExpectedInfo(q);
  };
  std::optional<double> applied;
  for (int round = 0; round < 10 && !applied; ++round) {
    applied = engine_->Recalibrate(fetch_gt, rng).new_tau;
  }
  ASSERT_TRUE(applied.has_value());
  EXPECT_DOUBLE_EQ(engine_->cache().sine().options().tau_lsm, *applied);
}

TEST_F(EngineTest, DecisionTraceRecordsHitsAndMisses) {
  CortexEngineOptions opts;
  opts.decision_trace_size = 3;
  Rebuild(opts);
  engine_->Lookup(world_.query(0, 0), 0.0);  // miss on empty cache
  engine_->InsertFetched(world_.query(0, 0), world_.answer(0), std::nullopt,
                         0.4, 0.005, 0.5);
  engine_->Lookup(world_.query(0, 2), 1.0);  // hit

  const auto& trace = engine_->decision_trace();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_FALSE(trace[0].hit);
  EXPECT_EQ(trace[0].query, world_.query(0, 0));
  EXPECT_TRUE(trace[1].hit);
  EXPECT_EQ(trace[1].matched_key, world_.query(0, 0));
  EXPECT_GE(trace[1].best_judger_score, 0.6);
}

TEST_F(EngineTest, DecisionTraceIsBoundedRing) {
  CortexEngineOptions opts;
  opts.decision_trace_size = 4;
  Rebuild(opts);
  for (int i = 0; i < 12; ++i) {
    engine_->Lookup(world_.query(i % 8, 0), i * 1.0);
  }
  const auto& trace = engine_->decision_trace();
  EXPECT_EQ(trace.size(), 4u);
  // The retained entries are the most recent lookups, oldest first.
  EXPECT_DOUBLE_EQ(trace.front().time, 8.0);
  EXPECT_DOUBLE_EQ(trace.back().time, 11.0);
}

TEST_F(EngineTest, TracingDisabledByDefault) {
  engine_->Lookup(world_.query(0, 0), 0.0);
  EXPECT_TRUE(engine_->decision_trace().empty());
}

// The engine behaves equivalently across index backends.
class EngineIndexTest : public ::testing::TestWithParam<IndexType> {};

TEST_P(EngineIndexTest, HitRateComparableAcrossIndexes) {
  MiniWorld world(60, /*seed=*/21);
  CortexEngineOptions opts;
  opts.cache.capacity_tokens = 1e6;
  opts.index_type = GetParam();
  opts.recalibration_enabled = false;
  CortexEngine engine(&world.embedder, world.judger.get(), opts);
  Rng rng(5);
  int hits = 0, lookups = 0;
  for (int i = 0; i < 400; ++i) {
    const auto topic = rng.NextBelow(world.universe->size());
    const auto para = rng.NextBelow(6);
    const auto& q = world.query(topic, para);
    ++lookups;
    auto out = engine.Lookup(q, i * 1.0);
    if (out.cache.hit) {
      ++hits;
    } else {
      engine.InsertFetched(q, world.answer(topic), std::nullopt, 0.4, 0.005,
                           i * 1.0);
    }
  }
  // Uniform popularity over 60 topics, 400 lookups: most topics cached
  // quickly, so hit rate should be substantial for every index type.
  EXPECT_GT(static_cast<double>(hits) / lookups, 0.5);
}

INSTANTIATE_TEST_SUITE_P(Indexes, EngineIndexTest,
                         ::testing::Values(IndexType::kFlat, IndexType::kIvf,
                                           IndexType::kHnsw),
                         [](const auto& info) {
                           switch (info.param) {
                             case IndexType::kFlat: return "flat";
                             case IndexType::kIvf: return "ivf";
                             case IndexType::kHnsw: return "hnsw";
                           }
                           return "unknown";
                         });

}  // namespace
}  // namespace cortex
