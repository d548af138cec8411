// The engine as the simulator, the data client and the examples run it: a
// one-shard ConcurrentShardedEngine on an injected virtual clock, with the
// Markov prefetcher beside it.  Plus the factories core/engine.h keeps.
#include "core/engine.h"

#include <gtest/gtest.h>

#include "flat_oracle.h"
#include "serve/data_client.h"
#include "serve/resolvers.h"
#include "test_helpers.h"

namespace cortex {
namespace {

using cortex::serve::ConcurrentEngineTestPeer;
using cortex::serve::ConcurrentShardedEngine;
using cortex::testing::MiniWorld;

// Runs `fn(se)` on the resident entry keyed `key` of a one-shard engine.
template <typename Fn>
void WithEntry(const ConcurrentShardedEngine& engine, const std::string& key,
               Fn&& fn) {
  ConcurrentEngineTestPeer::InspectShard(
      engine, 0, [&](const SemanticCache& cache, const serve::ShardSnapshot*) {
        for (const auto& [id, se] : cache.entries()) {
          if (se.key == key) fn(se);
        }
      });
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() {
    serve::ConcurrentEngineOptions opts;
    opts.num_shards = 1;
    opts.cache.capacity_tokens = 1e6;
    opts.clock = [this] { return now_; };
    opts.housekeeping_interval_sec = 0.0;
    engine_ = std::make_unique<ConcurrentShardedEngine>(
        &world_.embedder, world_.judger.get(), opts);
  }

  // A demanded fetch of `topic`'s answer under its first paraphrase, at
  // now_.
  std::optional<SeId> InsertTopic(std::size_t topic) {
    return engine_->Insert(FetchedInsert(world_.judger.get(),
                                         world_.query(topic, 0),
                                         world_.answer(topic), 0.4, 0.005,
                                         /*initial_frequency=*/1));
  }

  // A data client whose remote service fails while fail_fetches_ is set.
  std::unique_ptr<DataClient> MakeClient() {
    serve::ConcurrentEngineOptions opts;
    opts.cache.capacity_tokens = 1e6;
    return std::make_unique<DataClient>(
        &world_.embedder, world_.judger.get(), opts,
        [this](std::string_view query, double) -> DataClient::FetchResultView {
          if (fail_fetches_) return {};
          return {world_.oracle->ExpectedInfo(query), 0.4, 0.005};
        });
  }

  std::string SearchTurn(std::size_t topic, std::size_t paraphrase = 0) {
    return WrapTag(TagKind::kSearch, world_.query(topic, paraphrase));
  }

  // Four sessions that each look up topic 0, then topic 1.
  void TeachTransition(DataClient& client) {
    for (std::uint64_t session = 0; session < 4; ++session) {
      client.InterceptTurn(SearchTurn(0), session * 10.0, session);
      client.InterceptTurn(SearchTurn(1), session * 10.0 + 1.0, session);
    }
  }

  MiniWorld world_;
  double now_ = 0.0;
  bool fail_fetches_ = false;
  std::unique_ptr<ConcurrentShardedEngine> engine_;
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
  serve::LookupDetail miss;
  EXPECT_FALSE(engine_->Lookup(world_.query(0, 0), nullptr, {}, &miss));
  EXPECT_FALSE(miss.probe.hit.has_value());
  ASSERT_EQ(miss.probe.query_embedding.size(), world_.embedder.dimension());

  // The insert reuses the miss's embedding, as the resolver's does.
  InsertRequest admit =
      FetchedInsert(world_.judger.get(), world_.query(0, 0), world_.answer(0),
                    0.4, 0.005, /*initial_frequency=*/1);
  admit.embedding = std::move(miss.probe.query_embedding);
  now_ = 0.5;
  ASSERT_TRUE(engine_->Insert(std::move(admit)).has_value());

  now_ = 1.0;
  const auto hit = engine_->Lookup(world_.query(0, 3));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->value, world_.answer(0));
}

TEST_F(EngineTest, InsertFetchedScoresStaticityViaJudger) {
  // The data client's demand path: a miss fetches and admits.
  const auto client = MakeClient();
  client->InterceptTurn(SearchTurn(0), 0.0);
  ASSERT_EQ(client->engine().TotalSize(), 1u);
  bool found = false;
  WithEntry(client->engine(), world_.query(0, 0),
            [&](const SemanticElement& se) {
              found = true;
              // The judger estimates staticity near the oracle truth
              // (bounded noise).
              EXPECT_NEAR(se.staticity, world_.topic(0).staticity, 4.0);
              EXPECT_DOUBLE_EQ(
                  se.staticity,
                  world_.judger->ScoreStaticity(se.key, se.value));
              EXPECT_EQ(se.frequency, 1u);
              EXPECT_DOUBLE_EQ(se.retrieval_latency_sec, 0.4);
            });
  EXPECT_TRUE(found);
}

TEST_F(EngineTest, PrefetchedEntersWithZeroFrequency) {
  const auto client = MakeClient();
  fail_fetches_ = true;  // nothing is cached while the transition is taught
  TeachTransition(*client);
  fail_fetches_ = false;
  client->InterceptTurn(SearchTurn(0), 100.0, /*session=*/99);
  ASSERT_EQ(client->RunPendingPrefetches(100.5), 1u);
  bool found = false;
  WithEntry(client->engine(), world_.query(1, 0),
            [&](const SemanticElement& se) {
              found = true;
              EXPECT_EQ(se.frequency, 0u);  // speculative: must earn its keep
              EXPECT_NEAR(se.staticity, world_.topic(1).staticity, 4.0);
            });
  EXPECT_TRUE(found);
}

TEST_F(EngineTest, LookupLogsJudgmentsForRecalibration) {
  ASSERT_TRUE(InsertTopic(0).has_value());
  EXPECT_EQ(ConcurrentEngineTestPeer::JudgmentLogSize(*engine_, 0), 0u);
  now_ = 1.0;
  engine_->Lookup(world_.query(0, 2));
  EXPECT_GE(ConcurrentEngineTestPeer::JudgmentLogSize(*engine_, 0), 1u);
}

TEST_F(EngineTest, PrefetchProposalsAfterLearnedTransitions) {
  const auto client = MakeClient();
  // Teach q0 -> q1 through repeated sessions, with topic 1 absent so a
  // prefetch is actually useful.
  fail_fetches_ = true;
  TeachTransition(*client);
  // Next session: after q0, the client should propose prefetching q1 (q1
  // was never inserted, so it is not cached).
  client->InterceptTurn(SearchTurn(0), 100.0, /*session=*/99);
  const auto& proposals = client->pending_prefetches();
  ASSERT_FALSE(proposals.empty());
  EXPECT_EQ(proposals[0].query, world_.query(1, 0));
  EXPECT_GE(proposals[0].probability, 0.5);
}

TEST_F(EngineTest, NoPrefetchProposalWhenTargetCached) {
  const auto client = MakeClient();
  TeachTransition(*client);  // fetches succeed: q1 is cached
  ASSERT_TRUE(client->engine().ContainsKey(world_.query(1, 0)));
  client->InterceptTurn(SearchTurn(0), 100.0, /*session=*/99);
  EXPECT_TRUE(client->pending_prefetches().empty());
}

TEST_F(EngineTest, PrefetchDisabledProposesNothing) {
  ColocationSimulator gpu(DeploymentConfig::Colocated80_20());
  RemoteDataService service(RemoteDataService::SelfHostedRag());
  serve::ConcurrentEngineOptions opts;
  opts.cache.capacity_tokens = 1e6;
  CortexResolverOptions ropts;
  ropts.prefetch_enabled = false;
  CortexResolver resolver({&gpu, &service, world_.oracle.get()},
                          &world_.embedder, world_.judger.get(), opts, ropts);
  const auto serve = [&](std::size_t topic, double at, std::uint64_t task) {
    Simulation sim;
    sim.ScheduleAt(at, [&] {
      resolver.Resolve(sim, {"think", world_.query(topic, 0),
                             world_.answer(topic)},
                       task, [](ResolveOutcome) {});
    });
    sim.Run();
  };
  for (std::uint64_t session = 0; session < 6; ++session) {
    serve(0, session * 20.0, session);
    serve(1, session * 20.0 + 1.0, session);
  }
  ConcurrentEngineTestPeer::RemoveIf(
      resolver.engine(),
      [&](const std::string& key) { return world_.oracle->TopicOf(key) == 1u; });
  serve(0, 200.0, 99);
  EXPECT_EQ(resolver.prefetch_issued(), 0u);
  EXPECT_FALSE(resolver.engine().ContainsKey(world_.query(1, 0)));
}

TEST_F(EngineTest, RecalibrateAppliesNewThreshold) {
  // Seed the log with clearly-separated judgments.
  ASSERT_TRUE(InsertTopic(0).has_value());
  for (int i = 0; i < 30; ++i) {
    now_ = static_cast<double>(i);
    engine_->Lookup(world_.query(0, i % 6));
  }
  ASSERT_GT(ConcurrentEngineTestPeer::JudgmentLogSize(*engine_, 0), 0u);
  engine_->SetGroundTruthFetcher(
      [&](std::string_view q) { return world_.oracle->ExpectedInfo(q); });
  std::size_t changed = 0;
  for (int round = 0; round < 10 && changed == 0; ++round) {
    changed = engine_->RecalibrateAllShards();
  }
  ASSERT_EQ(changed, 1u);
  const double tau = engine_->tau_lsm(0);
  EXPECT_GE(tau, RecalibratorOptions{}.min_tau);
  EXPECT_LE(tau, RecalibratorOptions{}.max_tau);
  // The new threshold is published: lock-free probes judge against it.
  ConcurrentEngineTestPeer::InspectShard(
      *engine_, 0,
      [&](const SemanticCache& cache, const serve::ShardSnapshot* snap) {
        EXPECT_DOUBLE_EQ(cache.sine().options().tau_lsm, tau);
        ASSERT_NE(snap, nullptr);
        EXPECT_DOUBLE_EQ(snap->sine.tau_lsm, tau);
      });
}

}  // namespace
}  // namespace cortex
