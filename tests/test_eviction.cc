#include "core/eviction.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace cortex {
namespace {

SemanticElement MakeSe(std::uint64_t freq, double cost, double lat,
                       double stat, double size, double expiration = 1e9) {
  SemanticElement se;
  se.frequency = freq;
  se.retrieval_cost_dollars = cost;
  se.retrieval_latency_sec = lat;
  se.staticity = stat;
  se.size_tokens = size;
  se.expiration_time = expiration;
  return se;
}

TEST(LcfuPolicy, MatchesAlgorithmTwoFormula) {
  LcfuPolicy policy;
  const auto se = MakeSe(9, 0.005, 0.4, 8.0, 50.0);
  const double expected = std::log(10.0) * std::log(0.005 * 1e3 + 1.0) *
                          std::log(1.4) * std::log(9.0) / 50.0;
  EXPECT_NEAR(policy.Score(se, 0.0), expected, 1e-12);
}

TEST(LcfuPolicy, ExpiredOrEmptyScoresZero) {
  LcfuPolicy policy;
  EXPECT_DOUBLE_EQ(policy.Score(MakeSe(5, 0.01, 0.4, 8, 50, /*exp=*/10.0),
                                /*now=*/10.0),
                   0.0);
  EXPECT_DOUBLE_EQ(policy.Score(MakeSe(5, 0.01, 0.4, 8, /*size=*/0.0), 0.0),
                   0.0);
}

TEST(LcfuPolicy, ZeroFrequencyScoresZero) {
  // log(0+1) = 0: a prefetched-but-never-used SE is the first victim (§4.3).
  LcfuPolicy policy;
  EXPECT_DOUBLE_EQ(policy.Score(MakeSe(0, 0.01, 0.4, 8, 50), 0.0), 0.0);
}

TEST(LcfuPolicy, MonotoneInEachFactor) {
  LcfuPolicy policy;
  const auto base = MakeSe(4, 0.005, 0.4, 5.0, 50.0);
  const double s0 = policy.Score(base, 0.0);
  EXPECT_GT(policy.Score(MakeSe(8, 0.005, 0.4, 5.0, 50.0), 0.0), s0);
  EXPECT_GT(policy.Score(MakeSe(4, 0.025, 0.4, 5.0, 50.0), 0.0), s0);
  EXPECT_GT(policy.Score(MakeSe(4, 0.005, 0.9, 5.0, 50.0), 0.0), s0);
  EXPECT_GT(policy.Score(MakeSe(4, 0.005, 0.4, 9.0, 50.0), 0.0), s0);
  EXPECT_LT(policy.Score(MakeSe(4, 0.005, 0.4, 5.0, 100.0), 0.0), s0);
}

TEST(LcfuPolicy, SubDollarCostsStillContributePositively) {
  // The x1e3 shift exists because per-call cost < $1 would otherwise log to
  // a negative factor (§4.3's normalisation note).
  LcfuPolicy policy;
  const double score = policy.Score(MakeSe(1, 0.001, 0.3, 5.0, 10.0), 0.0);
  EXPECT_GT(score, 0.0);
}

TEST(LcfuPolicy, EphemeralPopularLosesToStableExpensive) {
  // The paper's design intent: transient-but-popular data must not displace
  // enduring high-cost content.
  LcfuPolicy policy;
  const auto ephemeral_popular = MakeSe(30, 0.001, 0.1, 1.2, 60.0);
  const auto stable_expensive = MakeSe(4, 0.025, 0.5, 9.5, 60.0);
  EXPECT_GT(policy.Score(stable_expensive, 0.0),
            policy.Score(ephemeral_popular, 0.0));
}

TEST(LruPolicy, OrdersByRecency) {
  LruPolicy policy;
  auto old_item = MakeSe(100, 0.01, 0.4, 9, 50);
  auto fresh = MakeSe(1, 0.0, 0.0, 1, 50);
  old_item.last_access = 10.0;
  fresh.last_access = 90.0;
  EXPECT_GT(policy.Score(fresh, 100.0), policy.Score(old_item, 100.0));
}

TEST(LruPolicy, IgnoresFrequencyAndCost) {
  LruPolicy policy;
  auto a = MakeSe(1000, 0.05, 2.0, 10, 10);
  auto b = MakeSe(0, 0.0, 0.0, 1, 500);
  a.last_access = b.last_access = 5.0;
  EXPECT_DOUBLE_EQ(policy.Score(a, 10.0), policy.Score(b, 10.0));
}

TEST(LfuPolicy, OrdersByFrequency) {
  LfuPolicy policy;
  EXPECT_GT(policy.Score(MakeSe(10, 0, 0, 5, 50), 0.0),
            policy.Score(MakeSe(2, 0, 0, 5, 50), 0.0));
}

TEST(AllPolicies, ExpiredItemsScoreZero) {
  auto expired = MakeSe(50, 0.01, 0.5, 9, 50, /*expiration=*/1.0);
  expired.last_access = 0.5;
  const double now = 2.0;
  EXPECT_DOUBLE_EQ(LcfuPolicy().Score(expired, now), 0.0);
  EXPECT_DOUBLE_EQ(LruPolicy().Score(expired, now), 0.0);
  EXPECT_DOUBLE_EQ(LfuPolicy().Score(expired, now), 0.0);
}

TEST(AllPolicies, ScoreOfAnUnexpiredEntryDoesNotDependOnTheClock) {
  // EvictionPolicy's contract, which SemanticCache's victim index relies
  // on: before expiry, Score(se, t1) == Score(se, t2).  -infinity is the
  // instant the cache itself scores entries at.
  const std::vector<double> times = {-std::numeric_limits<double>::infinity(),
                                     -5.0, 0.0, 3.5, 99.0, 999.999};
  const LcfuPolicy lcfu;
  const LruPolicy lru;
  const LfuPolicy lfu;
  for (const EvictionPolicy* policy :
       std::vector<const EvictionPolicy*>{&lcfu, &lru, &lfu}) {
    SCOPED_TRACE(policy->name());
    for (const double expiration :
         {1000.0, std::numeric_limits<double>::infinity()}) {
      for (auto se : {MakeSe(0, 0.0, 0.0, 1.0, 40.0, expiration),
                      MakeSe(7, 0.02, 1.3, 8.0, 60.0, expiration),
                      MakeSe(300, 0.001, 0.05, 10.0, 5.0, expiration)}) {
        se.last_access = 42.0;
        const double reference = policy->Score(se, times.front());
        for (const double t : times) {
          EXPECT_EQ(policy->Score(se, t), reference) << "t=" << t;
        }
      }
    }
  }
}

TEST(AllPolicies, NamesAreStable) {
  EXPECT_EQ(LcfuPolicy().name(), "lcfu");
  EXPECT_EQ(LruPolicy().name(), "lru");
  EXPECT_EQ(LfuPolicy().name(), "lfu");
}

}  // namespace
}  // namespace cortex
