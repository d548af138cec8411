// Batched-lookup parity and pipeline lifecycle tests (DESIGN.md §14).
//
// The parity property here is the load-bearing one: LookupBatch must be
// BIT-identical to sequential Lookup — same hits, same exact similarities,
// same judger verdicts, same tenant visibility — for every batch size and
// SIMD variant.  Run the churn tests under
// ThreadSanitizer via scripts/tsan.sh (CORTEX_SANITIZE=thread).
#include "serve/batch_pipeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "embedding/simd_kernels.h"
#include "flat_oracle.h"
#include "serve/concurrent_engine.h"
#include "telemetry/metrics.h"
#include "test_helpers.h"

namespace cortex {
namespace {

using cortex::testing::MiniWorld;
using cortex::testing::ScopedVariant;
using serve::BatchLookupRequest;
using serve::BatchPipeline;
using serve::BatchPipelineOptions;
using serve::ConcurrentEngineOptions;
using serve::ConcurrentShardedEngine;

std::uint64_t CounterValue(const telemetry::TelemetrySnapshot& snap,
                           std::string_view name) {
  for (const auto& e : snap.entries) {
    if (e.name == name) return e.counter_value;
  }
  return 0;
}

// Every counter in `snap`, by name.
std::map<std::string, std::uint64_t> Counters(
    const telemetry::TelemetrySnapshot& snap) {
  std::map<std::string, std::uint64_t> counters;
  for (const auto& e : snap.entries) {
    if (e.kind == telemetry::TelemetrySnapshot::Kind::kCounter) {
      counters.emplace(e.name, e.counter_value);
    }
  }
  return counters;
}

class BatchPipelineTest : public ::testing::Test {
 protected:
  BatchPipelineTest() : world_(48, /*seed=*/47) {}

  // Both engines in a parity pair share this clock, which the test steps
  // by hand: every lookup in a comparison round runs at the same instant
  // on both sides, exactly like LookupBatch's single per-batch `now`.
  ConcurrentEngineOptions BaseOptions() {
    ConcurrentEngineOptions opts;
    opts.num_shards = 2;  // batches must span shards
    opts.cache.capacity_tokens = 1e7;
    opts.housekeeping_interval_sec = 0.0;
    opts.clock = [this] { return now_; };
    return opts;
  }

  // Seeds an engine with the even topics (some tenant-private) so lookups
  // see a mix of hits, misses, and tenant-masked entries.
  void WarmUp(ConcurrentShardedEngine& engine) {
    const std::size_t topics = world_.universe->size();
    for (std::size_t topic = 0; topic < topics; topic += 2) {
      InsertRequest req;
      req.key = world_.query(topic, 0);
      req.value = world_.answer(topic);
      req.staticity = world_.topic(topic).staticity;
      req.initial_frequency = 1;
      if (topic % 6 == 0) req.tenant = "acme";  // private namespace
      ASSERT_TRUE(engine.Insert(std::move(req)).has_value())
          << "warmup insert failed for topic " << topic;
    }
  }

  // The query stream: every topic under several paraphrases, alternating
  // tenants so per-tenant visibility is part of the property.
  struct Probe {
    std::string query;
    std::string tenant;
  };
  std::vector<Probe> ProbeStream() const {
    std::vector<Probe> probes;
    const std::size_t topics = world_.universe->size();
    for (std::size_t round = 0; round < 3; ++round) {
      for (std::size_t topic = 0; topic < topics; ++topic) {
        Probe p;
        p.query = world_.query(topic, (topic + round) % 6);
        // Tenants rotate per round, so every acme-private topic is also
        // probed by a tenant that must not see it.
        if ((topic + round) % 3 == 0) p.tenant = "acme";
        if ((topic + round) % 3 == 1) p.tenant = "globex";  // shared pool only
        probes.push_back(std::move(p));
      }
    }
    return probes;
  }

  MiniWorld world_;
  double now_ = 100.0;
};

// The tentpole property: for every batch size and compiled SIMD variant,
// LookupBatch returns results bit-identical to sequential Lookup calls,
// and both equal the flat oracle (flat_oracle.h) — ids, values, exact
// similarities, judger scores, and tenant visibility all EXPECT_EQ, never
// EXPECT_NEAR.
TEST_F(BatchPipelineTest, LookupBatchBitIdenticalToSequentialLookups) {
  const auto probes = ProbeStream();
  for (const auto variant : simd::SupportedVariants()) {
    ScopedVariant forced(variant);
    ASSERT_TRUE(forced.forced());
    for (const std::size_t batch_size : {std::size_t{1}, std::size_t{3},
                                         std::size_t{16}}) {
      SCOPED_TRACE(std::string(simd::VariantName(variant)) + "/batch " +
                   std::to_string(batch_size));
      now_ = 100.0;
      ConcurrentShardedEngine seq(&world_.embedder, world_.judger.get(),
                                  BaseOptions());
      ConcurrentShardedEngine bat(&world_.embedder, world_.judger.get(),
                                  BaseOptions());
      WarmUp(seq);
      WarmUp(bat);

      for (std::size_t base = 0; base < probes.size(); base += batch_size) {
        const std::size_t n = std::min(batch_size, probes.size() - base);
        now_ += 0.25;  // both sides run this round at the same instant

        std::vector<std::optional<CacheHit>> want(n);
        for (std::size_t i = 0; i < n; ++i) {
          const Probe& p = probes[base + i];
          const auto oracle = serve::ConcurrentEngineTestPeer::FlatOracle(
              seq, p.query, now_, p.tenant);
          want[i] = seq.Lookup(p.query, nullptr, p.tenant);
          SCOPED_TRACE("oracle, probe " + std::to_string(base + i));
          ASSERT_EQ(want[i].has_value(), oracle.has_value());
          if (!oracle) continue;
          EXPECT_EQ(want[i]->id, oracle->id);
          EXPECT_EQ(want[i]->value, oracle->value);
          EXPECT_EQ(want[i]->matched_key, oracle->matched_key);
          EXPECT_EQ(want[i]->similarity, oracle->similarity);
          EXPECT_EQ(want[i]->judger_score, oracle->judger_score);
        }

        std::vector<BatchLookupRequest> reqs(n);
        for (std::size_t i = 0; i < n; ++i) {
          reqs[i].query = probes[base + i].query;
          reqs[i].tenant = probes[base + i].tenant;
        }
        bat.LookupBatch(reqs);

        for (std::size_t i = 0; i < n; ++i) {
          SCOPED_TRACE("probe " + std::to_string(base + i));
          ASSERT_EQ(reqs[i].hit.has_value(), want[i].has_value());
          if (!want[i]) continue;
          EXPECT_EQ(reqs[i].hit->id, want[i]->id);
          EXPECT_EQ(reqs[i].hit->value, want[i]->value);
          EXPECT_EQ(reqs[i].hit->matched_key, want[i]->matched_key);
          // Exact, not approximate: both paths rerank fp32 originals
          // with the scalar double kernel.
          EXPECT_EQ(reqs[i].hit->similarity, want[i]->similarity);
          EXPECT_EQ(reqs[i].hit->judger_score, want[i]->judger_score);
        }
      }

      // Commits and their accounting were identical too, so the engines
      // agree on every counter: the engine's, each shard's hit, miss and
      // judger-reject counters, the caches' and each tenant's lookups.
      const auto s = seq.Stats();
      const auto b = bat.Stats();
      EXPECT_EQ(s.lookups, b.lookups);
      EXPECT_EQ(s.hits, b.hits);
      const CacheCounters sc = seq.TotalCounters();
      const CacheCounters bc = bat.TotalCounters();
      EXPECT_EQ(sc.lookups, bc.lookups);
      EXPECT_EQ(sc.hits, bc.hits);
      EXPECT_EQ(sc.insertions, bc.insertions);
      EXPECT_EQ(sc.dedup_refreshes, bc.dedup_refreshes);
      EXPECT_EQ(sc.evictions, bc.evictions);
      EXPECT_EQ(sc.expirations, bc.expirations);
      const auto sm = Counters(seq.registry()->Snapshot());
      const auto bm = Counters(bat.registry()->Snapshot());
      for (const char* name :
           {"cortex_engine_judger_rejects", "cortex_engine_shard0_hits",
            "cortex_engine_shard1_misses",
            "cortex_engine_shard1_judger_rejects", "cortex_tenant_acme_hits",
            "cortex_tenant_globex_misses"}) {
        EXPECT_TRUE(sm.contains(name)) << name;
      }
      EXPECT_EQ(sm, bm);
    }
  }
}

// The pipeline front door returns exactly what a direct engine call
// would, and its counters account for every staged request.
TEST_F(BatchPipelineTest, PipelineLookupMatchesDirectEngine) {
  ConcurrentShardedEngine reference(&world_.embedder, world_.judger.get(),
                                    BaseOptions());
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(),
                                 BaseOptions());
  WarmUp(reference);
  WarmUp(engine);

  BatchPipelineOptions popts;
  popts.max_batch = 4;
  popts.batch_window_us = 100;
  popts.num_threads = 2;
  BatchPipeline pipeline(&engine, popts);
  ASSERT_TRUE(pipeline.enabled());

  const auto probes = ProbeStream();
  constexpr std::size_t kThreads = 4;
  std::vector<std::thread> pool;
  std::atomic<std::uint64_t> hits{0};
  for (std::size_t tid = 0; tid < kThreads; ++tid) {
    pool.emplace_back([&, tid] {
      for (std::size_t i = tid; i < probes.size(); i += kThreads) {
        const auto hit =
            pipeline.Lookup(probes[i].query, nullptr, probes[i].tenant);
        // Visibility sanity: the "globex" tenant can never receive an
        // acme-private value (the shared fixture makes those disjoint).
        if (hit) hits.fetch_add(1);
      }
    });
  }
  for (auto& t : pool) t.join();
  pipeline.Drain();

  EXPECT_EQ(engine.Stats().lookups, probes.size());
  // Hit/miss per probe matches the reference engine run sequentially at
  // the same (fixed) clock.
  std::uint64_t want_hits = 0;
  for (const auto& p : probes) {
    if (reference.Lookup(p.query, nullptr, p.tenant)) ++want_hits;
  }
  EXPECT_EQ(hits.load(), want_hits);

  const auto snap = engine.registry()->Snapshot();
  EXPECT_EQ(CounterValue(snap, "cortex_pipeline_requests"), probes.size());
  EXPECT_GE(CounterValue(snap, "cortex_pipeline_batches"), 1u);
  EXPECT_EQ(CounterValue(snap, "cortex_pipeline_full_flushes") +
                CounterValue(snap, "cortex_pipeline_window_flushes"),
            CounterValue(snap, "cortex_pipeline_batches"));
}

// A lone request must not wait for a batch to fill: the window deadline
// flushes it.
TEST_F(BatchPipelineTest, SingleRequestFlushesOnWindowDeadline) {
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(),
                                 BaseOptions());
  WarmUp(engine);
  BatchPipelineOptions popts;
  popts.max_batch = 64;  // never fills
  popts.batch_window_us = 200;
  BatchPipeline pipeline(&engine, popts);

  // Topic 2 is in the shared pool (WarmUp gives topic 0 to "acme"),
  // and paraphrase 0 is the inserted key itself — a guaranteed hit.
  const auto hit = pipeline.Lookup(world_.query(2, 0));
  EXPECT_TRUE(hit.has_value());
  pipeline.Drain();
  const auto snap = engine.registry()->Snapshot();
  EXPECT_EQ(CounterValue(snap, "cortex_pipeline_requests"), 1u);
  EXPECT_EQ(CounterValue(snap, "cortex_pipeline_full_flushes"), 0u);
  EXPECT_GE(CounterValue(snap, "cortex_pipeline_window_flushes"), 1u);
}

// max_batch <= 1 disables the pipeline: no threads, direct engine calls.
TEST_F(BatchPipelineTest, DisabledPipelinePassesThrough) {
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(),
                                 BaseOptions());
  WarmUp(engine);
  BatchPipelineOptions popts;
  popts.max_batch = 1;
  BatchPipeline pipeline(&engine, popts);
  EXPECT_FALSE(pipeline.enabled());
  EXPECT_TRUE(pipeline.Lookup(world_.query(2, 0)).has_value());
  EXPECT_EQ(engine.Stats().lookups, 1u);
  pipeline.Drain();  // no-op, must not hang
  EXPECT_TRUE(pipeline.Lookup(world_.query(4, 0)).has_value());
}

// TSan churn: lookups racing inserts racing Drain().  Every submitted
// lookup must complete (in-flight batches finish during Drain; later
// lookups fall back to the synchronous path), and nothing may deadlock
// or race.
TEST_F(BatchPipelineTest, ChurnSubmitFlushInsertAndDrain) {
  ConcurrentEngineOptions eopts = BaseOptions();
  eopts.clock = {};  // wall clock: inserts and lookups interleave freely
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(),
                                 eopts);
  WarmUp(engine);

  BatchPipelineOptions popts;
  popts.max_batch = 8;
  popts.batch_window_us = 50;
  popts.num_threads = 2;
  BatchPipeline pipeline(&engine, popts);

  constexpr std::size_t kLookupThreads = 4;
  constexpr std::size_t kLookupsPerThread = 120;
  const std::size_t topics = world_.universe->size();

  std::atomic<std::uint64_t> completed{0};
  std::vector<std::thread> pool;
  for (std::size_t tid = 0; tid < kLookupThreads; ++tid) {
    pool.emplace_back([&, tid] {
      for (std::size_t i = 0; i < kLookupsPerThread; ++i) {
        const std::size_t topic = (tid * 31 + i) % topics;
        pipeline.Lookup(world_.query(topic, i % 6), nullptr,
                        topic % 3 == 0 ? "acme" : "");
        completed.fetch_add(1);
      }
    });
  }
  // Concurrent inserts churn the shards (snapshot republish) while
  // batches are scanning them.
  pool.emplace_back([&] {
    for (std::size_t topic = 1; topic < topics; topic += 2) {
      InsertRequest req;
      req.key = world_.query(topic, 0);
      req.value = world_.answer(topic);
      req.staticity = world_.topic(topic).staticity;
      engine.Insert(std::move(req));
    }
  });
  // Drain while lookups are still being submitted: in-flight batches
  // complete, later lookups take the synchronous fallback.
  pool.emplace_back([&] { pipeline.Drain(); });

  for (auto& t : pool) t.join();
  EXPECT_EQ(completed.load(), kLookupThreads * kLookupsPerThread);
  EXPECT_EQ(engine.Stats().lookups, kLookupThreads * kLookupsPerThread);

  // Drained pipeline still serves (synchronously).
  EXPECT_TRUE(pipeline.Lookup(world_.query(2, 0)).has_value());
}

}  // namespace
}  // namespace cortex
