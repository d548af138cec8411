#include "serve/data_client.h"

#include <gtest/gtest.h>

#include "flat_oracle.h"
#include "llm/agent_model.h"
#include "test_helpers.h"

namespace cortex {
namespace {

using cortex::serve::ConcurrentEngineTestPeer;
using cortex::serve::ConcurrentShardedEngine;
using cortex::testing::MiniWorld;

class DataClientTest : public ::testing::Test {
 protected:
  DataClientTest() {
    serve::ConcurrentEngineOptions opts;
    opts.cache.capacity_tokens = 1e6;
    client_ = std::make_unique<DataClient>(
        &world_.embedder, world_.judger.get(), opts,
        [this](std::string_view query, double) -> DataClient::FetchResultView {
          if (fail_fetches_) return {};
          ++remote_fetches_;
          return {world_.oracle->ExpectedInfo(query), 0.4, 0.005};
        });
  }

  ConcurrentShardedEngine& engine() { return client_->engine(); }

  std::string AgentTurnFor(std::size_t topic, std::size_t paraphrase = 0) {
    return WrapTag(TagKind::kThink, "I should look this up.") +
           WrapTag(TagKind::kSearch, world_.query(topic, paraphrase));
  }

  MiniWorld world_;
  std::unique_ptr<DataClient> client_;
  int remote_fetches_ = 0;
  bool fail_fetches_ = false;  // the remote service is down
};

TEST_F(DataClientTest, InterceptsToolCallAndReturnsWrappedInfo) {
  const auto result = client_->InterceptTurn(AgentTurnFor(0), 0.0);
  EXPECT_TRUE(result.tool_call);
  EXPECT_EQ(result.query, world_.query(0, 0));
  EXPECT_FALSE(result.from_cache);
  ASSERT_TRUE(result.observation.has_value());
  EXPECT_EQ(*result.observation, WrapTag(TagKind::kInfo, world_.answer(0)));
  EXPECT_EQ(remote_fetches_, 1);
}

TEST_F(DataClientTest, SecondParaphraseServedFromCacheTransparently) {
  client_->InterceptTurn(AgentTurnFor(0, 0), 0.0, /*session=*/1);
  const auto result = client_->InterceptTurn(AgentTurnFor(0, 3), 1.0, 2);
  EXPECT_TRUE(result.from_cache);
  EXPECT_EQ(*result.observation, WrapTag(TagKind::kInfo, world_.answer(0)));
  EXPECT_EQ(remote_fetches_, 1);  // no second remote trip
  EXPECT_EQ(client_->served_from_cache(), 1u);
  EXPECT_EQ(client_->tool_calls_seen(), 2u);
}

TEST_F(DataClientTest, NonToolTurnsPassThroughUntouched) {
  const std::string final_turn =
      WrapTag(TagKind::kThink, "done") + WrapTag(TagKind::kAnswer, "42");
  const auto result = client_->InterceptTurn(final_turn, 0.0);
  EXPECT_FALSE(result.tool_call);
  EXPECT_FALSE(result.observation.has_value());
  EXPECT_EQ(remote_fetches_, 0);
  EXPECT_EQ(client_->turns_seen(), 1u);
}

TEST_F(DataClientTest, GenericToolTagIsAlsoIntercepted) {
  const std::string turn = WrapTag(TagKind::kTool, world_.query(1, 0));
  const auto result = client_->InterceptTurn(turn, 0.0);
  EXPECT_TRUE(result.tool_call);
  EXPECT_EQ(*result.observation, WrapTag(TagKind::kInfo, world_.answer(1)));
}

TEST_F(DataClientTest, FailedFetchIsReportedNotCached) {
  fail_fetches_ = true;
  const auto result = client_->InterceptTurn(AgentTurnFor(2), 0.0);
  EXPECT_TRUE(result.fetch_failed);
  EXPECT_EQ(engine().TotalSize(), 0u);
  // A later fetch, once the service is back, succeeds and caches.
  fail_fetches_ = false;
  const auto retry = client_->InterceptTurn(AgentTurnFor(2), 1.0);
  EXPECT_FALSE(retry.fetch_failed);
  EXPECT_EQ(engine().TotalSize(), 1u);
}

TEST_F(DataClientTest, PrefetchProposalsSurfaceAndExecute) {
  // Teach the transition topic0 -> topic1 across sessions.
  for (std::uint64_t session = 1; session <= 4; ++session) {
    client_->InterceptTurn(AgentTurnFor(0, 0), session * 10.0, session);
    client_->InterceptTurn(AgentTurnFor(1, 0), session * 10.0 + 1, session);
  }
  // Evict topic 1 so the prediction is actionable.
  ConcurrentEngineTestPeer::RemoveIf(engine(), [&](const std::string& key) {
    return world_.oracle->TopicOf(key) == 1u;
  });

  client_->InterceptTurn(AgentTurnFor(0, 1), 100.0, 99);
  ASSERT_FALSE(client_->pending_prefetches().empty());
  const auto fetched = client_->RunPendingPrefetches(100.5);
  EXPECT_GE(fetched, 1u);
  EXPECT_TRUE(engine().ContainsKey(world_.query(1, 0)));
  EXPECT_TRUE(client_->pending_prefetches().empty());
}

TEST_F(DataClientTest, DrivesAFullAgentLoopEndToEnd) {
  // The integration the paper's Fig. 1b sketches: agent emits tagged turns,
  // the data client feeds observations back, the loop converges.
  AgentTask task;
  task.id = 7;
  task.description = "two hop task";
  task.base_correctness = 1.0;
  task.steps.push_back({"hop one", world_.query(3, 1), world_.answer(3)});
  task.steps.push_back({"hop two", world_.query(4, 2), world_.answer(4)});
  task.final_think = "done";
  task.final_answer = "final";

  AgentModel agent;
  AgentSession session(task);
  std::optional<std::string> info;
  int loops = 0;
  while (!session.finished() && loops++ < 10) {
    const AgentTurn turn = agent.Next(session, info);
    const auto intercepted =
        client_->InterceptTurn(turn.text, loops * 1.0, task.id);
    if (intercepted.observation) {
      // Strip the <info> wrapper the way the serving stack would when
      // appending to context.
      const auto segments = ParseTagged(*intercepted.observation);
      ASSERT_EQ(segments.size(), 1u);
      info = segments[0].content;
    } else {
      info = std::nullopt;
    }
  }
  EXPECT_TRUE(session.finished());
  EXPECT_EQ(session.observations().size(), 2u);
  EXPECT_EQ(session.observations()[0], world_.answer(3));
  EXPECT_EQ(session.observations()[1], world_.answer(4));
}

}  // namespace
}  // namespace cortex
