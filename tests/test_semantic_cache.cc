#include "core/semantic_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <tuple>

#include "ann/flat_index.h"
#include "core/engine.h"
#include "llm/tags.h"
#include "test_helpers.h"

namespace cortex {
namespace {

using cortex::testing::MiniWorld;

class SemanticCacheTest : public ::testing::Test {
 protected:
  SemanticCacheTest() { Rebuild({}); }

  void Rebuild(SemanticCacheOptions options,
               EvictionKind eviction = EvictionKind::kLcfu) {
    if (options.capacity_tokens == SemanticCacheOptions{}.capacity_tokens) {
      options.capacity_tokens = 1e6;  // default: effectively unbounded
    }
    cache_ = std::make_unique<SemanticCache>(
        &world_.embedder,
        std::make_unique<FlatIndex>(world_.embedder.dimension()),
        world_.judger.get(), MakeEviction(eviction), options);
  }

  InsertRequest RequestFor(std::size_t topic_id, std::size_t paraphrase = 0,
                           std::uint64_t freq = 1) {
    InsertRequest req;
    req.key = world_.query(topic_id, paraphrase);
    req.value = world_.answer(topic_id);
    req.staticity = world_.topic(topic_id).staticity;
    req.retrieval_latency_sec = 0.4;
    req.retrieval_cost_dollars = 0.005;
    req.initial_frequency = freq;
    return req;
  }

  MiniWorld world_;
  std::unique_ptr<SemanticCache> cache_;
};

TEST_F(SemanticCacheTest, MissOnEmptyThenHitAfterInsert) {
  auto miss = cache_->Lookup(world_.query(0, 1), 0.0);
  EXPECT_FALSE(miss.hit.has_value());
  EXPECT_EQ(miss.query_embedding.size(), world_.embedder.dimension());

  ASSERT_TRUE(cache_->Insert(RequestFor(0), 1.0).has_value());
  auto hit = cache_->Lookup(world_.query(0, 2), 2.0);
  ASSERT_TRUE(hit.hit.has_value());
  EXPECT_EQ(hit.hit->value, world_.answer(0));
  EXPECT_EQ(hit.hit->matched_key, world_.query(0, 0));
  EXPECT_EQ(cache_->counters().hits, 1u);
  EXPECT_EQ(cache_->counters().lookups, 2u);
}

TEST_F(SemanticCacheTest, HitIncrementsFrequencyAndRecency) {
  const auto id = cache_->Insert(RequestFor(0), 0.0);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(cache_->Get(*id)->frequency, 1u);
  cache_->Lookup(world_.query(0, 3), 5.0);
  const SemanticElement* se = cache_->Get(*id);
  EXPECT_EQ(se->frequency, 2u);
  EXPECT_DOUBLE_EQ(se->last_access, 5.0);
}

TEST_F(SemanticCacheTest, ContainsKeyIsExact) {
  cache_->Insert(RequestFor(0, 0), 0.0);
  EXPECT_TRUE(cache_->ContainsKey(world_.query(0, 0)));
  EXPECT_FALSE(cache_->ContainsKey(world_.query(0, 1)));  // paraphrase
}

TEST_F(SemanticCacheTest, TtlScalesWithStaticity) {
  SemanticCacheOptions opts;
  opts.min_ttl_sec = 100;
  opts.max_ttl_sec = 1000;
  Rebuild(opts);
  InsertRequest ephemeral = RequestFor(0);
  ephemeral.staticity = 1.0;
  InsertRequest stable = RequestFor(1);
  stable.staticity = 10.0;
  const auto id_e = cache_->Insert(std::move(ephemeral), 0.0);
  const auto id_s = cache_->Insert(std::move(stable), 0.0);
  EXPECT_DOUBLE_EQ(cache_->Get(*id_e)->expiration_time, 100.0);
  EXPECT_DOUBLE_EQ(cache_->Get(*id_s)->expiration_time, 1000.0);
}

TEST_F(SemanticCacheTest, ExpiredEntriesDoNotServeHits) {
  SemanticCacheOptions opts;
  opts.min_ttl_sec = 10;
  opts.max_ttl_sec = 20;
  Rebuild(opts);
  cache_->Insert(RequestFor(0), 0.0);
  auto hit = cache_->Lookup(world_.query(0, 1), 5.0);
  EXPECT_TRUE(hit.hit.has_value());
  auto stale = cache_->Lookup(world_.query(0, 1), 50.0);
  EXPECT_FALSE(stale.hit.has_value());
  EXPECT_EQ(cache_->counters().expirations, 1u);
  EXPECT_EQ(cache_->size(), 0u);
}

TEST_F(SemanticCacheTest, RemoveExpiredPurgesOnlyExpired) {
  SemanticCacheOptions opts;
  opts.min_ttl_sec = 10;
  opts.max_ttl_sec = 1000;
  Rebuild(opts);
  InsertRequest short_lived = RequestFor(0);
  short_lived.staticity = 1.0;
  InsertRequest long_lived = RequestFor(1);
  long_lived.staticity = 10.0;
  cache_->Insert(std::move(short_lived), 0.0);
  cache_->Insert(std::move(long_lived), 0.0);
  EXPECT_EQ(cache_->RemoveExpired(500.0), 1u);
  EXPECT_EQ(cache_->size(), 1u);
}

TEST_F(SemanticCacheTest, TtlDisabledMeansImmortalEntries) {
  SemanticCacheOptions opts;
  opts.ttl_enabled = false;
  Rebuild(opts);
  cache_->Insert(RequestFor(0), 0.0);
  EXPECT_EQ(cache_->RemoveExpired(1e12), 0u);
  EXPECT_TRUE(cache_->Lookup(world_.query(0, 1), 1e12).hit.has_value());
}

TEST_F(SemanticCacheTest, CapacityEnforcedByEviction) {
  // Room for roughly two answers.
  const double two_answers =
      static_cast<double>(ApproxTokenCount(world_.answer(0)) +
                          ApproxTokenCount(world_.answer(1))) +
      4.0;
  SemanticCacheOptions opts;
  opts.capacity_tokens = two_answers;
  Rebuild(opts);
  cache_->Insert(RequestFor(0), 0.0);
  cache_->Insert(RequestFor(1), 1.0);
  cache_->Insert(RequestFor(2), 2.0);
  EXPECT_LE(cache_->usage_tokens(), cache_->capacity_tokens());
  EXPECT_GE(cache_->counters().evictions, 1u);
  EXPECT_LE(cache_->size(), 2u);
}

TEST_F(SemanticCacheTest, LcfuEvictsLowestValueItem) {
  SemanticCacheOptions opts;
  opts.capacity_tokens = 3.0 * 80.0;  // answers are ~60 tokens
  Rebuild(opts);
  const auto hot = cache_->Insert(RequestFor(0, 0, /*freq=*/1), 0.0);
  cache_->Insert(RequestFor(1, 0, /*freq=*/1), 0.0);
  ASSERT_TRUE(hot.has_value());
  // Make topic 0 hot via confirmed hits.
  for (int i = 0; i < 5; ++i) cache_->Lookup(world_.query(0, 1), 1.0 + i);
  // Fill past capacity: the cold entry (topic 1) should go first.
  cache_->Insert(RequestFor(2), 10.0);
  cache_->Insert(RequestFor(3), 11.0);
  EXPECT_TRUE(cache_->Lookup(world_.query(0, 2), 20.0).hit.has_value());
}

TEST_F(SemanticCacheTest, OversizedValueIsRejected) {
  SemanticCacheOptions opts;
  opts.capacity_tokens = 10.0;
  Rebuild(opts);
  EXPECT_FALSE(cache_->Insert(RequestFor(0), 0.0).has_value());
  EXPECT_EQ(cache_->counters().rejected_too_large, 1u);
  EXPECT_EQ(cache_->size(), 0u);
}

TEST_F(SemanticCacheTest, ExactKeyReinsertReplaces) {
  const auto id1 = cache_->Insert(RequestFor(0, 0), 0.0);
  InsertRequest replacement = RequestFor(0, 0);
  replacement.value = "fresh replacement value";
  const auto id2 = cache_->Insert(std::move(replacement), 1.0);
  ASSERT_TRUE(id2.has_value());
  EXPECT_NE(*id1, *id2);
  EXPECT_EQ(cache_->size(), 1u);
  EXPECT_EQ(cache_->Get(*id2)->value, "fresh replacement value");
  EXPECT_EQ(cache_->Get(*id1), nullptr);
}

TEST_F(SemanticCacheTest, ValueDedupRefreshesInsteadOfDuplicating) {
  const auto id1 = cache_->Insert(RequestFor(0, 0), 0.0);
  // Same knowledge fetched under a different paraphrase key.
  const auto id2 = cache_->Insert(RequestFor(0, 1), 50.0);
  ASSERT_TRUE(id1.has_value() && id2.has_value());
  EXPECT_EQ(*id1, *id2);
  EXPECT_EQ(cache_->size(), 1u);
  EXPECT_EQ(cache_->counters().dedup_refreshes, 1u);
  const SemanticElement* se = cache_->Get(*id1);
  EXPECT_EQ(se->frequency, 2u);  // credit accumulated
  EXPECT_DOUBLE_EQ(se->last_access, 50.0);
}

TEST_F(SemanticCacheTest, DedupRenewsTtl) {
  SemanticCacheOptions opts;
  opts.min_ttl_sec = 100;
  opts.max_ttl_sec = 100;
  Rebuild(opts);
  const auto id = cache_->Insert(RequestFor(0, 0), 0.0);
  cache_->Insert(RequestFor(0, 1), 80.0);  // re-fetch renews lifetime
  EXPECT_DOUBLE_EQ(cache_->Get(*id)->expiration_time, 180.0);
}

TEST_F(SemanticCacheTest, RemoveDeletesEverywhere) {
  const auto id = cache_->Insert(RequestFor(0), 0.0);
  ASSERT_TRUE(cache_->Remove(*id));
  EXPECT_FALSE(cache_->Remove(*id));
  EXPECT_FALSE(cache_->ContainsKey(world_.query(0, 0)));
  EXPECT_EQ(cache_->sine().size(), 0u);
  EXPECT_DOUBLE_EQ(cache_->usage_tokens(), 0.0);
  // Value-identical re-insert must not resurrect the removed id.
  const auto id2 = cache_->Insert(RequestFor(0), 1.0);
  EXPECT_NE(*id2, *id);
}

TEST_F(SemanticCacheTest, UsageTracksInsertAndEvict) {
  EXPECT_DOUBLE_EQ(cache_->usage_tokens(), 0.0);
  cache_->Insert(RequestFor(0), 0.0);
  const double after_one = cache_->usage_tokens();
  EXPECT_GT(after_one, 0.0);
  cache_->Insert(RequestFor(1), 0.0);
  EXPECT_GT(cache_->usage_tokens(), after_one);
}

// Capacity sweep: usage never exceeds capacity under sustained churn.
class CacheCapacityTest : public SemanticCacheTest,
                          public ::testing::WithParamInterface<double> {};

TEST_P(CacheCapacityTest, InvariantUnderChurn) {
  SemanticCacheOptions opts;
  opts.capacity_tokens = GetParam();
  Rebuild(opts);
  Rng rng(1);
  for (int i = 0; i < 300; ++i) {
    const auto topic = rng.NextBelow(world_.universe->size());
    const auto para = rng.NextBelow(6);
    const double now = i * 0.5;
    auto lookup = cache_->Lookup(world_.query(topic, para), now);
    if (!lookup.hit) {
      cache_->Insert(RequestFor(topic, para), now);
    }
    ASSERT_LE(cache_->usage_tokens(), opts.capacity_tokens + 1e-9);
    // Book-keeping invariant: usage equals the sum over entries.
    double sum = 0.0;
    for (const auto& [id, se] : cache_->entries()) sum += se.size_tokens;
    ASSERT_NEAR(sum, cache_->usage_tokens(), 1e-6);
  }
  EXPECT_GT(cache_->counters().hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Capacities, CacheCapacityTest,
                         ::testing::Values(150.0, 400.0, 1200.0, 5000.0));

TEST_F(SemanticCacheTest, EvictionAlwaysRemovesTheLowestScoredEntry) {
  // Differential test of the victim index against a full scan.  Before
  // every write the reference snapshots the resident entries; after it,
  // the reference replays the write's eviction on that snapshot — exact-key
  // replace and TTL purge first, then the tenant budget, then capacity,
  // each victim the least (tier, score, last_access, id) — and the cache
  // must have evicted exactly those ids, in that order.  The op mix covers
  // every path that changes a score input: inserts with mixed metadata,
  // hits, dedup refreshes, exact-key replaces, restores that merge or
  // admit, TTL expiries, tenant budgets and promotions.
  double size_cap = 0.0;
  for (std::size_t t = 0; t < world_.universe->size(); ++t) {
    size_cap = std::max(
        size_cap, static_cast<double>(ApproxTokenCount(world_.answer(t))));
  }
  size_cap += 4.0;  // a revised value is a few tokens longer
  const std::vector<std::string> tenants = {"", "a", "b", "c"};
  const std::map<std::string, double> budgets = {{"a", 2.5 * size_cap},
                                                 {"c", 3.5 * size_cap}};
  for (const EvictionKind kind :
       {EvictionKind::kLcfu, EvictionKind::kLru, EvictionKind::kLfu}) {
    SemanticCacheOptions opts;
    opts.capacity_tokens = 8.0 * size_cap;
    opts.min_ttl_sec = 40.0;
    opts.max_ttl_sec = 400.0;
    opts.promote_distinct_tenants = 2;
    Rebuild(opts, kind);
    const auto policy = MakeEviction(kind);
    SCOPED_TRACE(policy->name());
    std::vector<SeId> changed;
    cache_->set_change_sink(&changed);
    std::map<std::string, double> recorded_budget;
    std::size_t replaces = 0;
    Rng rng(9);
    double now = 0.0;
    for (int step = 0; step < 600; ++step) {
      // Several ops often share a clock reading, so last_access ties too.
      now += static_cast<double>(rng.NextBelow(2));
      const std::string& tenant = tenants[rng.NextBelow(tenants.size())];
      const auto topic = rng.NextBelow(world_.universe->size());
      const auto para = rng.NextBelow(6);
      const auto op = rng.NextBelow(10);
      if (op < 2) {  // a hit bumps frequency and last_access
        cache_->Lookup(world_.query(topic, para), now, tenant);
        continue;
      }
      if (op == 2) {
        // A hot entry: a burst of hits re-keys it far more often than the
        // namespace has entries, which makes its victim heap compact.
        if (cache_->size() == 0) continue;
        auto it = cache_->entries().begin();
        std::advance(it, rng.NextBelow(cache_->size()));
        const std::string key = it->second.key;
        const std::string owner = it->second.tenant;
        for (int hit = 0; hit < 100; ++hit) {
          cache_->Lookup(key, now + 0.01 * (hit % 3), owner);
        }
        continue;
      }
      // Wire inserts carry no cost or latency (every LCFU score is 0).
      const bool free_fetch = rng.NextBelow(3) == 0;
      const double latency = free_fetch ? 0.0 : rng.Uniform(0.1, 2.0);
      const double cost = free_fetch ? 0.0 : rng.Uniform(0.0, 0.05);
      std::string value = world_.answer(topic);
      if (rng.NextBelow(4) == 0) {
        // Same key, new content: an exact-key replace, not a dedup.
        value.append(" revision ").append(std::to_string(step));
      }

      const std::map<SeId, SemanticElement> before(cache_->entries().begin(),
                                                   cache_->entries().end());
      const CacheCounters counters_before = cache_->counters();
      changed.clear();
      std::optional<SeId> id;
      double budget = 0.0;
      const bool insert = op < 8;
      if (insert) {
        InsertRequest req;
        req.key = world_.query(topic, para);
        req.value = std::move(value);
        req.tenant = tenant;
        req.staticity = 1.0 + static_cast<double>(rng.NextBelow(10));
        req.initial_frequency = rng.NextBelow(4);
        req.retrieval_latency_sec = latency;
        req.retrieval_cost_dollars = cost;
        req.shareable = rng.NextBelow(4) != 0;
        if (const auto b = budgets.find(tenant); b != budgets.end()) {
          budget = b->second;
          req.budget_tokens = budget;
          recorded_budget[tenant] = budget;
        }
        id = cache_->Insert(std::move(req), now);
      } else {
        SemanticElement se;
        if (op == 8 && !before.empty()) {
          // A snapshot copy of a resident value: the max-merge path.
          auto it = before.begin();
          std::advance(it, rng.NextBelow(before.size()));
          se = it->second;
          se.frequency += rng.NextBelow(3);
        } else {
          se.key = world_.query(topic, para);
          se.value = std::move(value);
          se.tenant = tenant;
          se.staticity = 1.0 + static_cast<double>(rng.NextBelow(10));
          se.frequency = rng.NextBelow(4);
          se.retrieval_latency_sec = latency;
          se.retrieval_cost_dollars = cost;
        }
        se.last_access = now - static_cast<double>(rng.NextBelow(20));
        se.created_at = se.last_access;
        se.expiration_time =
            now + 1.0 + static_cast<double>(rng.NextBelow(200));
        id = cache_->RestoreElement(std::move(se), now);
      }

      std::vector<SeId> expected;
      if (id && cache_->counters().dedup_refreshes ==
                    counters_before.dedup_refreshes) {
        const SemanticElement& added = *cache_->Get(*id);
        struct Live {
          SeId id;
          std::string tenant;
          double size;
          double score;
          double last_access;
        };
        std::vector<Live> live;
        std::map<std::string, double> usage;
        double total = 0.0;
        SeId replaced = 0;
        for (const auto& [eid, e] : before) {
          if (e.tenant == added.tenant && e.key == added.key) {
            replaced = eid;
            continue;
          }
          if (e.ExpiredAt(now)) continue;
          live.push_back({eid, e.tenant, e.size_tokens, policy->Score(e, now),
                          e.last_access});
          usage[e.tenant] += e.size_tokens;
          total += e.size_tokens;
        }
        if (replaced != 0) ++replaces;
        // Evicts the least (tier, score, last_access, id) while `more()`;
        // tier 5 marks entries out of scope.
        const auto evict_while = [&](auto tier_of, auto more) {
          while (more()) {
            auto best = live.end();
            auto best_rank = std::make_tuple(5, 0.0, 0.0, SeId{0});
            for (auto it = live.begin(); it != live.end(); ++it) {
              const auto rank = std::make_tuple(tier_of(it->tenant), it->score,
                                                it->last_access, it->id);
              if (std::get<0>(rank) < 5 &&
                  (best == live.end() || rank < best_rank)) {
                best = it;
                best_rank = rank;
              }
            }
            if (best == live.end()) return;
            expected.push_back(best->id);
            usage[best->tenant] -= best->size;
            total -= best->size;
            live.erase(best);
          }
        };
        const double size = added.size_tokens;
        if (insert && !added.tenant.empty() && budget > 0.0) {
          const double share = std::max(budget - size, 0.0);
          evict_while(
              [&](const std::string& t) { return t == added.tenant ? 0 : 5; },
              [&] { return usage[added.tenant] > share; });
        }
        const double target = std::max(opts.capacity_tokens - size, 0.0);
        evict_while(
            [&](const std::string& t) {
              if (!added.tenant.empty() && t == added.tenant) return 0;
              if (t.empty()) return 2;
              const auto b = recorded_budget.find(t);
              if (b != recorded_budget.end() && usage[t] > b->second) return 1;
              return 3;
            },
            [&] { return total > target; });

        std::vector<SeId> evicted;
        for (const SeId c : changed) {
          const auto was = before.find(c);
          if (was != before.end() && c != replaced &&
              !was->second.ExpiredAt(now) && cache_->Get(c) == nullptr &&
              std::find(evicted.begin(), evicted.end(), c) == evicted.end()) {
            evicted.push_back(c);
          }
        }
        EXPECT_EQ(evicted, expected) << "step " << step;
      }
      EXPECT_EQ(cache_->counters().evictions - counters_before.evictions,
                expected.size())
          << "step " << step;
    }
    const CacheCounters& c = cache_->counters();
    EXPECT_GT(c.evictions, 50u);
    EXPECT_GT(c.expirations, 0u);
    EXPECT_GT(c.dedup_refreshes, 0u);
    EXPECT_GT(c.promotions, 0u);
    EXPECT_GT(replaces, 0u);
    EXPECT_GT(cache_->TenantUsageFor("a").evictions, 0u);
    cache_->set_change_sink(nullptr);
  }
}

// A cache built without an index (a cortexd shard's, which probes its
// own epoch snapshot) keeps every write path but cannot Lookup.
class NullIndexCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }

  SemanticCache MakeCache(SemanticCacheOptions options) {
    return SemanticCache(&world_.embedder, /*index=*/nullptr,
                         world_.judger.get(),
                         MakeEviction(EvictionKind::kLcfu), options);
  }

  InsertRequest RequestFor(std::size_t topic) {
    InsertRequest req;
    req.key = world_.query(topic, 0);
    req.value = world_.answer(topic);
    req.staticity = world_.topic(topic).staticity;
    return req;
  }

  MiniWorld world_;
};
using NullIndexCacheDeathTest = NullIndexCacheTest;

TEST_F(NullIndexCacheDeathTest, ProbeAndLookupAbort) {
  SemanticCache cache = MakeCache({});
  ASSERT_TRUE(cache.Insert(RequestFor(0), 0.0).has_value());
  EXPECT_DEATH(cache.Lookup(world_.query(0, 1), 1.0),
               "null index cannot Lookup");
}

TEST_F(NullIndexCacheTest, InsertEvictExpireAndRestoreStillWork) {
  SemanticCacheOptions options;
  options.min_ttl_sec = 10.0;
  options.max_ttl_sec = 20.0;
  options.capacity_tokens = 0.0;
  for (std::size_t topic = 0; topic < 3; ++topic) {
    options.capacity_tokens +=
        static_cast<double>(ApproxTokenCount(world_.answer(topic)));
  }
  SemanticCache cache = MakeCache(options);

  for (std::size_t topic = 0; topic < 4; ++topic) {
    ASSERT_TRUE(cache.Insert(RequestFor(topic), 0.0).has_value());
  }
  EXPECT_GT(cache.counters().evictions, 0u);
  EXPECT_LE(cache.usage_tokens(), options.capacity_tokens);
  EXPECT_TRUE(cache.ContainsKey(world_.query(3, 0)));

  const std::size_t resident = cache.size();
  EXPECT_EQ(cache.RemoveExpired(100.0), resident);
  EXPECT_EQ(cache.size(), 0u);

  SemanticElement se;
  se.key = world_.query(5, 0);
  se.value = world_.answer(5);
  se.created_at = 100.0;
  se.expiration_time = 200.0;
  const auto id = cache.RestoreElement(std::move(se), 100.0);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(cache.Get(*id)->embedding,
            world_.embedder.Embed(world_.query(5, 0)));
  EXPECT_EQ(cache.sine().size(), 0u);
}

}  // namespace
}  // namespace cortex
