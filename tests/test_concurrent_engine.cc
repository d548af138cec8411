// Serving-layer concurrency tests: N real threads doing mixed
// lookup/insert against the same shard set.  Run these under
// ThreadSanitizer via scripts/tsan.sh (CORTEX_SANITIZE=thread).
#include "serve/concurrent_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/placement.h"
#include "embedding/vector_slab.h"
#include "flat_oracle.h"
#include "llm/tags.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace cortex {
namespace {

using cortex::testing::MiniWorld;
using cortex::testing::ScopedVariant;
using serve::ConcurrentEngineOptions;
using Peer = serve::ConcurrentEngineTestPeer;
using serve::ConcurrentShardedEngine;
using serve::kSnapshotChunkRows;
using serve::ShardSnapshot;
using serve::SnapshotChunk;

class ConcurrentEngineTest : public ::testing::Test {
 protected:
  ConcurrentEngineTest() : world_(64, /*seed=*/43) {}

  ConcurrentEngineOptions BaseOptions() {
    ConcurrentEngineOptions opts;
    opts.num_shards = 4;
    opts.cache.capacity_tokens = 1e7;        // no capacity evictions
    opts.housekeeping_interval_sec = 0.0;    // tests drive purges by hand
    return opts;
  }

  InsertRequest RequestFor(std::size_t topic, std::size_t paraphrase = 0) {
    InsertRequest req;
    req.key = world_.query(topic, paraphrase);
    req.value = world_.answer(topic);
    req.staticity = world_.topic(topic).staticity;
    req.initial_frequency = 1;
    return req;
  }

  MiniWorld world_;
};

TEST_F(ConcurrentEngineTest, MixedLookupInsertKeepsCountersConsistent) {
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(),
                                 BaseOptions());
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 3;
  const std::size_t topics = world_.universe->size();

  std::atomic<std::uint64_t> lookups_issued{0};
  std::atomic<std::uint64_t> inserts_accepted{0};
  std::atomic<std::uint64_t> inserts_rejected{0};

  std::vector<std::thread> pool;
  for (std::size_t tid = 0; tid < kThreads; ++tid) {
    pool.emplace_back([&, tid] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t topic = 0; topic < topics; ++topic) {
          // Every thread inserts its "own" topics and looks up everything,
          // so the same shards see concurrent reads and writes.
          if (topic % kThreads == tid) {
            if (engine.Insert(RequestFor(topic, round))) {
              inserts_accepted.fetch_add(1);
            } else {
              inserts_rejected.fetch_add(1);
            }
          }
          engine.Lookup(world_.query(topic, (round + tid) % 6));
          lookups_issued.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : pool) t.join();

  const auto stats = engine.Stats();
  const auto totals = engine.TotalCounters();
  // Engine atomics and per-shard counters must agree exactly with the
  // offered load: no lost or double-counted operations.
  EXPECT_EQ(stats.lookups, lookups_issued.load());
  EXPECT_EQ(totals.lookups, lookups_issued.load());
  EXPECT_EQ(stats.hits, totals.hits);
  EXPECT_LE(totals.hits, totals.lookups);
  EXPECT_EQ(stats.inserts, inserts_accepted.load());
  EXPECT_EQ(stats.insert_rejects, inserts_rejected.load());
  // Accepted inserts are either fresh insertions or value-dedup refreshes.
  EXPECT_EQ(totals.insertions + totals.dedup_refreshes,
            inserts_accepted.load());
}

TEST_F(ConcurrentEngineTest, NoLostInsertsAcrossThreads) {
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(),
                                 BaseOptions());
  constexpr std::size_t kThreads = 8;
  const std::size_t topics = world_.universe->size();

  std::vector<std::thread> pool;
  for (std::size_t tid = 0; tid < kThreads; ++tid) {
    pool.emplace_back([&, tid] {
      for (std::size_t topic = tid; topic < topics; topic += kThreads) {
        ASSERT_TRUE(engine.Insert(RequestFor(topic)).has_value());
      }
    });
  }
  for (auto& t : pool) t.join();

  // Capacity is huge and every topic has a distinct value, so nothing may
  // be dropped: every inserted key must still be resident.
  for (std::size_t topic = 0; topic < topics; ++topic) {
    EXPECT_TRUE(engine.ContainsKey(world_.query(topic, 0)))
        << "lost insert for topic " << topic;
  }
  EXPECT_EQ(engine.TotalSize(), topics);
  EXPECT_EQ(engine.Stats().inserts, topics);
}

TEST_F(ConcurrentEngineTest, ParallelLookupsServeHitsAfterWarmup) {
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(),
                                 BaseOptions());
  const std::size_t topics = world_.universe->size();
  for (std::size_t topic = 0; topic < topics; ++topic) {
    ASSERT_TRUE(engine.Insert(RequestFor(topic)).has_value());
  }

  constexpr std::size_t kThreads = 8;
  std::atomic<std::uint64_t> hits{0};
  std::vector<std::thread> pool;
  for (std::size_t tid = 0; tid < kThreads; ++tid) {
    pool.emplace_back([&, tid] {
      for (std::size_t topic = 0; topic < topics; ++topic) {
        const auto hit = engine.Lookup(world_.query(topic, 1 + tid % 5));
        if (hit) {
          hits.fetch_add(1);
          EXPECT_FALSE(hit->value.empty());
        }
      }
    });
  }
  for (auto& t : pool) t.join();

  // Paraphrase lookups of resident topics hit at the usual (noisy-judger)
  // rate; concurrency must not change that materially.
  EXPECT_GE(hits.load(), kThreads * topics * 6 / 10);
  EXPECT_EQ(engine.Stats().hits, hits.load());
}

TEST_F(ConcurrentEngineTest, HousekeepingThreadPurgesExpiredEntries) {
  std::atomic<double> fake_now{0.0};
  ConcurrentEngineOptions opts = BaseOptions();
  opts.cache.min_ttl_sec = 10.0;
  opts.cache.max_ttl_sec = 20.0;
  opts.housekeeping_interval_sec = 0.5;  // engine-clock seconds
  opts.clock = [&fake_now] { return fake_now.load(); };
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(),
                                 opts);

  for (std::size_t topic = 0; topic < 16; ++topic) {
    ASSERT_TRUE(engine.Insert(RequestFor(topic)).has_value());
  }
  EXPECT_EQ(engine.TotalSize(), 16u);

  // Jump the engine clock past every TTL; the housekeeping thread (polling
  // wall-clock, triggering on the engine clock) must purge everything.
  fake_now.store(1000.0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (engine.TotalSize() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(engine.TotalSize(), 0u);
  EXPECT_GE(engine.Stats().expired_removed, 16u);
  EXPECT_GE(engine.Stats().housekeeping_runs, 1u);
  EXPECT_EQ(engine.TotalCounters().expirations, 16u);
}

TEST_F(ConcurrentEngineTest, RecalibrationTickRunsOnEveryShard) {
  ConcurrentEngineOptions opts = BaseOptions();
  opts.recalibration.samples_per_round = 4;
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(),
                                 opts);
  engine.SetGroundTruthFetcher([this](std::string_view query) {
    return world_.oracle->ExpectedInfo(query);
  });

  // Warm the judgment logs: inserts + paraphrase lookups generate judged
  // candidates on every shard.
  const std::size_t topics = world_.universe->size();
  for (std::size_t topic = 0; topic < topics; ++topic) {
    ASSERT_TRUE(engine.Insert(RequestFor(topic)).has_value());
  }
  for (std::size_t round = 0; round < 4; ++round) {
    for (std::size_t topic = 0; topic < topics; ++topic) {
      engine.Lookup(world_.query(topic, round + 1));
    }
  }

  engine.RecalibrateAllShards();
  EXPECT_EQ(engine.Stats().recalibrations, engine.num_shards());
  for (std::size_t shard = 0; shard < engine.num_shards(); ++shard) {
    const double tau = engine.tau_lsm(shard);
    EXPECT_GE(tau, opts.recalibration.min_tau);
    EXPECT_LE(tau, opts.recalibration.max_tau);
  }
}

// ---------------------------------------------------------------------------
// Lock-free probe (DESIGN.md §13) vs the flat oracle (flat_oracle.h).  The
// epoch path's i8 scan + fp32 rerank must reproduce a kFlat Sine over the
// shard's entries bit for bit — same hits, same ids, same similarities and
// judger scores, same counters — whatever SIMD variant scans.

TEST_F(ConcurrentEngineTest, LockFreeProbeMatchesLockedPathExactly) {
  for (const auto variant : simd::SupportedVariants()) {
    ScopedVariant forced(variant);
    ASSERT_TRUE(forced.forced());
    ConcurrentShardedEngine epoch(&world_.embedder, world_.judger.get(),
                                  BaseOptions());

    // Every fourth topic is acme-private, and lookups rotate between acme,
    // globex and the shared pool, so every acme-private topic is also
    // probed by tenants that must not see it: tenant visibility is part
    // of the property.
    const std::size_t topics = world_.universe->size();
    for (std::size_t topic = 0; topic < topics; ++topic) {
      InsertRequest req = RequestFor(topic);
      if (topic % 4 == 0) req.tenant = "acme";
      ASSERT_TRUE(epoch.Insert(std::move(req)).has_value());
    }

    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    for (std::size_t round = 0; round < 3; ++round) {
      for (std::size_t topic = 0; topic < topics; ++topic) {
        const auto& q = world_.query(topic, round + 1);
        constexpr std::string_view kTenants[] = {"acme", "globex", ""};
        const std::string_view tenant = kTenants[(topic + round) % 3];
        const auto a = Peer::FlatOracle(epoch, q, epoch.Now(), tenant);
        const auto b = epoch.Lookup(q, nullptr, tenant);
        ++lookups;
        ASSERT_EQ(a.has_value(), b.has_value())
            << "variant=" << simd::VariantName(variant) << " topic=" << topic
            << " round=" << round;
        if (a) {
          ++hits;
          EXPECT_EQ(a->id, b->id);
          EXPECT_EQ(a->value, b->value);
          EXPECT_EQ(a->matched_key, b->matched_key);
          EXPECT_EQ(a->similarity, b->similarity);  // bit-exact, not near
          EXPECT_EQ(a->judger_score, b->judger_score);
        }
      }
    }

    const auto sb = epoch.Stats();
    EXPECT_EQ(sb.lookups, lookups);
    EXPECT_EQ(sb.hits, hits);
    const auto cb = epoch.TotalCounters();
    EXPECT_EQ(cb.lookups, lookups);
    EXPECT_EQ(cb.hits, hits);
  }
}

// Work counters: every committed lookup adds its shard snapshot's size
// to cortex_engine_rows_scanned and its rerank pool to
// cortex_engine_rerank_candidates.  The expected pool is recomputed here
// from the published rows: the i8 scores at or above tau_sim minus
// kQuantSimSlack, capped at max(4 * top_k, 32).  The default tau_sim
// keeps pools under the cap; tau_sim -1 admits every row, so the cap
// binds.
TEST_F(ConcurrentEngineTest, WorkCountersMatchSnapshotSizesAndPools) {
  const auto& scalar = simd::KernelsFor(simd::Variant::kScalar);
  const std::size_t topics = world_.universe->size();
  for (const double tau_sim : {SineOptions{}.tau_sim, -1.0}) {
    SCOPED_TRACE("tau_sim " + std::to_string(tau_sim));
    ConcurrentEngineOptions opts = BaseOptions();
    opts.clock = [] { return 100.0; };
    opts.cache.sine.tau_sim = tau_sim;
    ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(),
                                   opts);
    // Three phrasings per topic with distinct values: ~48 rows a shard.
    for (std::size_t topic = 0; topic < topics; ++topic) {
      for (std::size_t p = 0; p < 3; ++p) {
        InsertRequest req = RequestFor(topic, p);
        req.value += " #" + std::to_string(p);
        ASSERT_TRUE(engine.Insert(std::move(req)).has_value());
      }
    }

    std::uint64_t want_rows = 0;
    std::uint64_t want_pool = 0;
    std::uint64_t admitted_total = 0;
    std::uint64_t lookups = 0;
    for (std::size_t topic = 0; topic < topics; ++topic) {
      const std::string& q = world_.query(topic, 4);
      const Vector embedding = world_.embedder.Embed(q);
      Peer::InspectShard(
          engine, engine.ShardFor(q),
          [&](const SemanticCache&, const ShardSnapshot* snap) {
            ASSERT_NE(snap, nullptr);
            want_rows += snap->size();
            std::vector<std::int8_t> q8(snap->dim);
            const float q_scale = simd::QuantizeRowI8(embedding, q8.data());
            const double floor = snap->sine.tau_sim - serve::kQuantSimSlack;
            std::size_t admitted = 0;
            for (const SnapshotChunk* c : snap->chunks) {
              std::vector<float> sims(c->size);
              scalar.dot_rows_i8(q8.data(), q_scale, c->rows, c->scales,
                                 c->size, snap->dim, sims.data());
              for (const float sim : sims) {
                if (static_cast<double>(sim) >= floor) ++admitted;
              }
            }
            admitted_total += admitted;
            want_pool += std::min<std::size_t>(
                admitted, std::max<std::size_t>(4 * snap->sine.top_k, 32));
          });
      engine.Lookup(q);
      ++lookups;
    }
    // Peek commits nothing, so it counts no work either.
    engine.Peek(world_.query(0, 0));

    const auto counter = [&](std::string_view name) -> std::uint64_t {
      for (const auto& e : engine.registry()->Snapshot().entries) {
        if (e.name == name) return e.counter_value;
      }
      ADD_FAILURE() << "missing counter " << name;
      return 0;
    };
    EXPECT_EQ(engine.Stats().lookups, lookups);
    EXPECT_EQ(counter("cortex_engine_rows_scanned"), want_rows);
    EXPECT_EQ(counter("cortex_engine_rerank_candidates"), want_pool);
    EXPECT_GT(want_rows, lookups);
    EXPECT_GT(want_pool, 0u);
    if (tau_sim < 0.0) {
      EXPECT_LT(want_pool, admitted_total);  // the cap bound
    } else {
      EXPECT_EQ(want_pool, admitted_total);  // it did not
    }
  }
}

TEST_F(ConcurrentEngineTest, LockFreeProbeHonoursTtlWithoutPurge) {
  std::atomic<double> fake_now{0.0};
  ConcurrentEngineOptions opts = BaseOptions();
  opts.cache.min_ttl_sec = 10.0;
  opts.cache.max_ttl_sec = 20.0;
  opts.clock = [&fake_now] { return fake_now.load(); };
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(), opts);

  ASSERT_TRUE(engine.Insert(RequestFor(0)).has_value());
  EXPECT_TRUE(engine.Lookup(world_.query(0, 0)).has_value());

  // Jump past the TTL without purging: the snapshot still references the
  // record, so the probe's visibility filter alone must turn it away.
  fake_now.store(1000.0);
  EXPECT_FALSE(engine.Lookup(world_.query(0, 0)).has_value());

  // The purge then rebuilds the snapshot without the entry; a re-insert
  // republishes and serves hits again.
  EXPECT_EQ(engine.RemoveExpired(), 1u);
  EXPECT_FALSE(engine.Lookup(world_.query(0, 0)).has_value());
  ASSERT_TRUE(engine.Insert(RequestFor(0)).has_value());
  EXPECT_TRUE(engine.Lookup(world_.query(0, 0)).has_value());
}

TEST_F(ConcurrentEngineTest, LockFreeProbeKeepsTenantsInvisible) {
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(),
                                 BaseOptions());
  InsertRequest req = RequestFor(3);
  req.tenant = "acme";
  ASSERT_TRUE(engine.Insert(std::move(req)).has_value());

  EXPECT_TRUE(engine.Lookup(world_.query(3, 0), nullptr, "acme").has_value());
  EXPECT_FALSE(engine.Lookup(world_.query(3, 0), nullptr, "rival").has_value());
  EXPECT_FALSE(engine.Lookup(world_.query(3, 0)).has_value());
}

TEST_F(ConcurrentEngineTest, RestoreReembedsScaledAndNonFiniteEmbeddings) {
  // Probes score by inner product over the restored fp32 embedding, so a
  // RESTORE carrying a scaled vector would report ~8x the real
  // similarity, and one carrying a NaN would never match.  Both must be
  // re-embedded from the key and then serve exactly like a fresh insert.
  constexpr std::size_t kTopic = 5;
  ConcurrentShardedEngine fresh(&world_.embedder, world_.judger.get(),
                                BaseOptions());
  ASSERT_TRUE(fresh.Insert(RequestFor(kTopic)).has_value());

  const Vector good = world_.embedder.Embed(world_.query(kTopic, 0));
  Vector scaled = good;
  for (float& x : scaled) x *= 8.0f;
  Vector nan = good;
  nan[3] = std::numeric_limits<float>::quiet_NaN();
  for (const Vector& embedding : {scaled, nan}) {
    ConcurrentShardedEngine restored(&world_.embedder, world_.judger.get(),
                                     BaseOptions());
    SemanticElement se;
    se.key = world_.query(kTopic, 0);
    se.value = world_.answer(kTopic);
    se.staticity = world_.topic(kTopic).staticity;
    se.frequency = 1;
    se.created_at = restored.Now();
    se.last_access = se.created_at;
    se.expiration_time = se.created_at + 3600.0;
    se.embedding = embedding;
    ASSERT_TRUE(restored.RestoreElement(std::move(se)).has_value());

    std::size_t hits = 0;
    for (std::size_t p = 1; p < 6; ++p) {
      const std::string& paraphrase = world_.query(kTopic, p);
      const auto want = fresh.Peek(paraphrase);
      const auto got = restored.Peek(paraphrase);
      ASSERT_EQ(want.has_value(), got.has_value()) << "paraphrase " << p;
      if (!want) continue;
      ++hits;
      EXPECT_EQ(got->id, want->id);
      EXPECT_EQ(got->value, want->value);
      EXPECT_EQ(got->similarity, want->similarity);
      EXPECT_LE(got->similarity, 1.0);
    }
    EXPECT_GT(hits, 0u);
  }
}

TEST_F(ConcurrentEngineTest, LookupsRaceChurnUnderLockFreeProbe) {
  // Readers race inserts, TTL churn, and housekeeping: epoch reclamation
  // must keep every snapshot readable (run under TSan via scripts/tsan.sh).
  std::atomic<double> fake_now{0.0};
  ConcurrentEngineOptions opts = BaseOptions();
  opts.cache.min_ttl_sec = 1.0;
  opts.cache.max_ttl_sec = 2.0;
  opts.housekeeping_interval_sec = 0.01;
  opts.clock = [&fake_now] { return fake_now.load(); };
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(), opts);

  const std::size_t topics = world_.universe->size();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> lookups{0};
  std::vector<std::thread> readers;
  for (std::size_t tid = 0; tid < 4; ++tid) {
    readers.emplace_back([&, tid] {
      std::size_t i = tid;
      while (!stop.load(std::memory_order_relaxed)) {
        engine.Lookup(world_.query(i % topics, i % 6));
        lookups.fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
    });
  }
  // Writer: keep inserting while the clock marches entries over their
  // TTLs, so snapshots churn continuously.
  for (std::size_t round = 0; round < 40; ++round) {
    for (std::size_t topic = 0; topic < topics; topic += 4) {
      engine.Insert(RequestFor(topic, round % 6));
    }
    fake_now.store(fake_now.load() + 0.25);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(engine.Stats().lookups, lookups.load());
  EXPECT_GT(lookups.load(), 0u);
}

TEST_F(ConcurrentEngineTest,
       SequentialAndBatchedReadersRaceChunkCrossingChurn) {
  // One shard holding ~3 chunks: every replace, eviction and expiry
  // swap-removes from an arbitrary chunk and pulls the last entry across
  // a chunk boundary, while sequential Lookup readers and batched readers
  // (four read-only Peeks per round, nothing committed) scan.  Records, chunks and rows live only as long as the
  // limbo protocol keeps them, so a premature free surfaces here under
  // ASan and a missing happens-before under TSan.
  std::atomic<double> fake_now{0.0};
  ConcurrentEngineOptions opts = BaseOptions();
  opts.num_shards = 1;
  opts.cache.min_ttl_sec = 2.0;
  opts.cache.max_ttl_sec = 8.0;
  opts.cache.capacity_tokens =
      640.0 * static_cast<double>(ApproxTokenCount(world_.answer(0) + " #0"));
  opts.housekeeping_interval_sec = 0.01;
  opts.clock = [&fake_now] { return fake_now.load(); };
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(), opts);

  const std::size_t topics = world_.universe->size();
  const auto request = [&](std::size_t i, std::size_t version) {
    InsertRequest req;
    req.key = world_.query(i % topics, i % 6) + " #" + std::to_string(i);
    req.value = world_.answer(i % topics) + " #" + std::to_string(i) + "." +
                std::to_string(version);
    req.staticity = 1.0 + static_cast<double>(i % 10);
    return req;
  };
  constexpr std::size_t kKeys = 700;
  for (std::size_t i = 0; i < kKeys; ++i) engine.Insert(request(i, 0));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> sequential{0};
  std::atomic<std::uint64_t> batched{0};
  std::vector<std::thread> readers;
  for (std::size_t tid = 0; tid < 2; ++tid) {
    readers.emplace_back([&, tid] {
      for (std::size_t i = tid; !stop.load(std::memory_order_relaxed); ++i) {
        engine.Lookup(world_.query(i % topics, i % 6));
        sequential.fetch_add(1, std::memory_order_relaxed);
      }
    });
    readers.emplace_back([&, tid] {
      for (std::size_t i = tid; !stop.load(std::memory_order_relaxed); ++i) {
        for (std::size_t q = 0; q < 4; ++q) {
          engine.Peek(world_.query((i * 4 + q) % topics, (i + q) % 6));
        }
        batched.fetch_add(4, std::memory_order_relaxed);
      }
    });
  }
  Rng rng(11);
  for (std::size_t round = 0; round < 30; ++round) {
    for (std::size_t w = 0; w < 40; ++w) {
      engine.Insert(request(rng.NextBelow(kKeys), round + 1));
    }
    fake_now.store(fake_now.load() + 0.5);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(engine.Stats().lookups, sequential.load());
  EXPECT_GT(sequential.load(), 0u);
  EXPECT_GT(batched.load(), 0u);
  EXPECT_GT(engine.TotalCounters().evictions +
                engine.TotalCounters().expirations,
            0u);
}

// ---------------------------------------------------------------------------
// Incremental publish (DESIGN.md §13.3).  A write copies only the chunks
// it touched, so the differential check is: after EVERY write, the
// published snapshot mirrors the cache exactly, and lock-free probes
// match the flat oracle.

class IncrementalPublishTest : public ConcurrentEngineTest {
 protected:
  // Every Key(i) asks for topic i, so the judger accepts it as a match
  // for the topic's phrasings and the parity probes see real hits.
  IncrementalPublishTest() {
    for (std::size_t i = 0; i < 2048; ++i) {
      world_.oracle->RegisterQuery(Key(i),
                                   world_.topic(i % world_.universe->size()).id);
    }
  }

  ConcurrentEngineOptions Options() {
    ConcurrentEngineOptions opts = BaseOptions();
    opts.num_shards = 1;  // snapshot positions are then fully controlled
    opts.cache.min_ttl_sec = 5.0;
    opts.cache.max_ttl_sec = 50.0;
    opts.cache.promote_distinct_tenants = 2;
    opts.recalibration.samples_per_round = 4;
    opts.clock = [this] { return now_; };
    return opts;
  }

  // A distinct key and value per `i`, drawn from the topic phrasings so
  // probes see realistic near neighbours.  The first value per topic is
  // the topic's true answer, so recalibration sees correct hits too.
  std::string Key(std::size_t i) const {
    const std::size_t topics = world_.universe->size();
    return world_.query(i % topics, (i / topics) % 6) + " #" +
           std::to_string(i);
  }
  std::string Value(std::size_t i) const {
    const std::size_t topics = world_.universe->size();
    return i < topics ? world_.answer(i)
                      : world_.answer(i % topics) + " #" + std::to_string(i);
  }

  // The published snapshot must hold exactly the cache's entries: one
  // record per id with the same fingerprint and content, a dense spine,
  // and scan rows holding the i8 quantization of each fp32 embedding.
  static void ExpectSnapshotMirrorsCache(const ConcurrentShardedEngine& engine,
                                         const std::string& context) {
    Peer::InspectShard(engine, 0, [&](const SemanticCache& cache,
                                      const ShardSnapshot* snap) {
      ASSERT_NE(snap, nullptr) << context;
      const auto& entries = cache.entries();
      ASSERT_EQ(snap->size(), entries.size()) << context;
      EXPECT_EQ(snap->sine.tau_lsm, cache.sine().options().tau_lsm)
          << context;
      EXPECT_EQ(snap->sine.tau_sim, cache.sine().options().tau_sim)
          << context;
      const std::size_t n = snap->size();
      ASSERT_EQ(snap->chunks.size(),
                (n + kSnapshotChunkRows - 1) / kSnapshotChunkRows)
          << context;
      for (std::size_t c = 0; c < snap->chunks.size(); ++c) {
        const std::size_t want = c + 1 < snap->chunks.size()
                                     ? kSnapshotChunkRows
                                     : n - c * kSnapshotChunkRows;
        ASSERT_EQ(snap->chunks[c]->size, want) << context << " chunk " << c;
      }
      VectorSlab expected(snap->dim, RowFormat::kI8);
      std::unordered_set<SeId> seen;
      for (std::size_t i = 0; i < n; ++i) {
        const serve::ProbeRecord* rec = snap->record(i);
        ASSERT_TRUE(seen.insert(rec->id).second) << context << " dup id";
        const auto it = entries.find(rec->id);
        ASSERT_NE(it, entries.end()) << context << " stale id " << rec->id;
        const SemanticElement& se = it->second;
        EXPECT_EQ(rec->created_at, se.created_at) << context;
        EXPECT_EQ(rec->expiration_time, se.expiration_time) << context;
        EXPECT_EQ(rec->tenant, se.tenant) << context;
        EXPECT_EQ(rec->key, se.key) << context;
        EXPECT_EQ(rec->value, se.value) << context;
        EXPECT_TRUE(std::ranges::equal(rec->embedding, se.embedding))
            << context;
        // One copy: the record borrows the SE's bytes.
        EXPECT_EQ(rec->key.data(), se.key.data()) << context;
        EXPECT_EQ(rec->value.data(), se.value.data()) << context;
        EXPECT_EQ(rec->embedding.data(), se.embedding.data()) << context;

        const std::uint32_t row = expected.Add(se.embedding);
        const SnapshotChunk& chunk = *snap->chunks[i / kSnapshotChunkRows];
        const std::size_t k = i % kSnapshotChunkRows;
        EXPECT_EQ(std::memcmp(chunk.rows[k], expected.RowI8(row), snap->dim),
                  0)
            << context << " row " << i;
        EXPECT_EQ(chunk.scales[k], expected.RowScale(row)) << context;
        expected.Free(row);
      }
    });
  }

  // Lock-free Peek must equal the flat oracle's on a fixed probe set.
  void ExpectProbesMatch(ConcurrentShardedEngine& epoch,
                         const std::string& context) {
    struct Expected {
      const std::string* query;
      std::string_view tenant;
      std::optional<CacheHit> hit;
    };
    std::vector<Expected> want;
    const std::size_t topics = world_.universe->size();
    Peer::WithFlatOracle(epoch, 0, now_, [&](const auto& oracle) {
      for (std::size_t t = 0; t < topics; t += 3) {
        for (const std::string_view tenant : {"", "acme"}) {
          const std::string& q = world_.query(t, (t / 3) % 6);
          want.push_back({&q, tenant, oracle(q, tenant)});
        }
      }
    });
    for (const Expected& w : want) {
      const auto& a = w.hit;
      const auto b = epoch.Peek(*w.query, w.tenant);
      ASSERT_EQ(a.has_value(), b.has_value()) << context << " q=" << *w.query;
      if (!a) continue;
      EXPECT_EQ(a->id, b->id) << context;
      EXPECT_EQ(a->value, b->value) << context;
      EXPECT_EQ(a->matched_key, b->matched_key) << context;
      EXPECT_EQ(a->similarity, b->similarity) << context;
      EXPECT_EQ(a->judger_score, b->judger_score) << context;
    }
  }

  double now_ = 1.0;
};

TEST_F(IncrementalPublishTest, ChunkBoundarySizesAndRemovalsMirrorTheCache) {
  for (const auto variant : simd::SupportedVariants()) {
    ScopedVariant forced(variant);
    ASSERT_TRUE(forced.forced());
    for (const std::size_t size : {255u, 256u, 257u, 513u}) {
      ConcurrentShardedEngine epoch(&world_.embedder, world_.judger.get(),
                                    Options());
      const auto insert = [&](std::size_t i, const std::string& value) {
        InsertRequest req;
        req.key = Key(i);
        req.value = value;
        ASSERT_TRUE(epoch.Insert(std::move(req)).has_value());
      };
      for (std::size_t i = 0; i < size; ++i) insert(i, Value(i));
      const std::string tag = std::string(simd::VariantName(variant)) +
                              " n=" + std::to_string(size);
      ExpectSnapshotMirrorsCache(epoch, tag + " filled");
      ExpectProbesMatch(epoch, tag + " filled");

      // An exact-key replace removes the old entry — swap-remove from
      // its chunk — and appends the new one.  Hit the first, a middle
      // and the last chunk, including the very first and last slots.
      std::vector<std::size_t> positions = {0, size / 2, size - 1};
      if (size > kSnapshotChunkRows) positions.push_back(kSnapshotChunkRows);
      for (const std::size_t pos : positions) {
        std::string key;
        Peer::InspectShard(epoch, 0, [&](const SemanticCache&,
                                         const ShardSnapshot* snap) {
          key = snap->record(pos)->key;
        });
        const std::size_t i = std::stoul(key.substr(key.rfind('#') + 1));
        insert(i, Value(i) + " v" + std::to_string(pos));
        const std::string ctx = tag + " replace@" + std::to_string(pos);
        ExpectSnapshotMirrorsCache(epoch, ctx);
        ExpectProbesMatch(epoch, ctx);
      }
    }
  }
}

TEST_F(IncrementalPublishTest, RandomWriteSequencesMirrorTheCache) {
  // Every kind of write, drawn at random: inserts, exact-key replaces,
  // dedup refreshes, tenant promotions, capacity evictions, TTL expiries,
  // restores (fresh and dedup) and recalibrations that move tau.  After
  // each one the lock-free snapshot must mirror the cache and probe
  // exactly like the flat oracle.
  for (const auto variant : simd::SupportedVariants()) {
    ScopedVariant forced(variant);
    ASSERT_TRUE(forced.forced());
    now_ = 1.0;
    ConcurrentEngineOptions epoch_opts = Options();
    // Room for ~60 entries, so long runs evict.
    epoch_opts.cache.capacity_tokens =
        60.0 * static_cast<double>(ApproxTokenCount(Value(1000)));
    ConcurrentShardedEngine epoch(&world_.embedder, world_.judger.get(),
                                  epoch_opts);
    epoch.SetGroundTruthFetcher([this](std::string_view q) {
      return world_.oracle->ExpectedInfo(q);
    });

    static constexpr const char* kTenants[] = {"", "acme", "globex"};
    struct Written {
      std::size_t i;
      std::string tenant;
    };
    std::vector<Written> written;
    Rng rng(0x1c0df);
    std::size_t next = 0;
    std::size_t tau_moves = 0;
    for (std::size_t op = 0; op < 700; ++op) {
      const std::uint64_t kind = rng.NextBelow(100);
      InsertRequest req;
      req.staticity = 1.0 + static_cast<double>(rng.NextBelow(10));
      req.initial_frequency = rng.NextBelow(3);
      std::string what;
      if (kind < 45 || written.empty()) {
        what = "insert";
        const std::size_t i = next++;
        req.key = Key(i);
        req.value = Value(i);
        req.tenant = kTenants[rng.NextBelow(3)];
        written.push_back({i, req.tenant});
        epoch.Insert(std::move(req));
      } else if (kind < 55) {
        what = "replace";
        const Written& w = written[rng.NextBelow(written.size())];
        req.key = Key(w.i);
        req.value = Value(w.i) + " r" + std::to_string(op);
        req.tenant = w.tenant;
        epoch.Insert(std::move(req));
      } else if (kind < 67) {
        what = "dedup";
        const Written& w = written[rng.NextBelow(written.size())];
        req.key = Key(next++);
        req.value = Value(w.i);
        req.tenant = w.tenant;
        epoch.Insert(std::move(req));
      } else if (kind < 75) {
        what = "promote";
        const Written& w = written[rng.NextBelow(written.size())];
        req.key = Key(next++);
        req.value = Value(w.i);
        req.tenant = w.tenant == "acme" ? "globex" : "acme";
        epoch.Insert(std::move(req));
      } else if (kind < 85) {
        what = "expire";
        now_ += rng.Uniform(0.0, 12.0);
        epoch.RemoveExpired();
      } else if (kind < 93) {
        what = "restore";
        SemanticElement se;
        const bool dedup = rng.NextBelow(2) == 0;
        const std::size_t i =
            dedup ? written[rng.NextBelow(written.size())].i : next++;
        se.key = dedup ? Key(next++) : Key(i);
        se.value = Value(i);
        se.staticity = 5.0;
        se.frequency = rng.NextBelow(4);
        se.created_at = now_;
        se.last_access = now_;
        se.expiration_time = now_ + rng.Uniform(1.0, 80.0);
        if (!dedup) written.push_back({i, ""});
        epoch.RestoreElement(se);
      } else {
        what = "recalibrate";
        // Judged lookups feed the recalibrator (committed results must
        // match the oracle too), then one round may move tau.
        std::vector<std::optional<CacheHit>> want;
        Peer::WithFlatOracle(epoch, 0, now_, [&](const auto& oracle) {
          for (std::size_t t = 0; t < world_.universe->size(); t += 2) {
            want.push_back(oracle(world_.query(t, 1 + op % 5), ""));
          }
        });
        for (std::size_t t = 0; t < world_.universe->size(); t += 2) {
          const auto& a = want[t / 2];
          const auto b = epoch.Lookup(world_.query(t, 1 + op % 5));
          ASSERT_EQ(a.has_value(), b.has_value());
          if (a) {
            EXPECT_EQ(a->id, b->id);
          }
        }
        const double before = epoch.tau_lsm(0);
        epoch.RecalibrateAllShards();
        if (epoch.tau_lsm(0) != before) ++tau_moves;
      }
      const std::string ctx = std::string(simd::VariantName(variant)) +
                              " op " + std::to_string(op) + " (" + what + ")";
      ExpectSnapshotMirrorsCache(epoch, ctx);
      if (::testing::Test::HasFatalFailure()) return;
      ExpectProbesMatch(epoch, ctx);
    }
    const CacheCounters c = epoch.TotalCounters();
    const char* name = simd::VariantName(variant);
    EXPECT_GT(c.evictions, 0u) << name;
    EXPECT_GT(c.expirations, 0u) << name;
    EXPECT_GT(c.dedup_refreshes, 0u) << name;
    EXPECT_GT(c.promotions, 0u) << name;
    EXPECT_GT(tau_moves, 0u) << name;
  }
}

TEST(ExpiryIndexTest, RemovesExactlyWhatAFullSweepWould) {
  // The expiry-ordered index must pop exactly the entries a full store
  // sweep (ExpiredAt over entries()) would remove — across inserts, TTL
  // renewals by dedup, max-merging restores, replaces and evictions.
  MiniWorld world(64, /*seed=*/5);
  SemanticCacheOptions opts;
  opts.min_ttl_sec = 10.0;
  opts.max_ttl_sec = 100.0;
  opts.capacity_tokens =
      20.0 * static_cast<double>(ApproxTokenCount(world.answer(0) + " #0"));
  SemanticCache cache(&world.embedder,
                      MakeIndex(IndexType::kFlat, world.embedder.dimension()),
                      world.judger.get(), MakeEviction(EvictionKind::kLcfu),
                      opts);
  std::vector<SeId> feed;
  cache.set_change_sink(&feed);

  Rng rng(99);
  double now = 0.0;
  std::size_t next = 0;
  std::size_t swept = 0;
  const std::size_t topics = world.universe->size();
  for (std::size_t step = 0; step < 2000; ++step) {
    const std::uint64_t kind = rng.NextBelow(10);
    if (kind < 6) {
      InsertRequest req;
      const std::size_t i = kind == 0 && next > 0 ? rng.NextBelow(next) : next;
      if (i == next) ++next;
      // kind 0 re-fetches a known value under a new phrasing (a dedup
      // refresh that renews the TTL).
      req.key = world.query(i % topics, step % 6) + " @" + std::to_string(step);
      req.value = world.answer(i % topics) + " #" + std::to_string(i);
      req.staticity = 1.0 + static_cast<double>(rng.NextBelow(10));
      cache.Insert(std::move(req), now);
    } else if (kind < 8) {
      SemanticElement se;
      const std::size_t i = next > 0 ? rng.NextBelow(next) : 0;
      se.key = "restored @" + std::to_string(step);
      se.value = world.answer(i % topics) + " #" + std::to_string(i);
      se.created_at = now;
      se.expiration_time =
          step % 97 == 0 ? std::numeric_limits<double>::quiet_NaN()
                         : now + rng.Uniform(0.0, 120.0);
      cache.RestoreElement(std::move(se), now);
    } else {
      now += rng.Uniform(0.0, 15.0);
      std::set<SeId> due;
      for (const auto& [id, se] : cache.entries()) {
        if (se.ExpiredAt(now)) due.insert(id);
      }
      feed.clear();
      const std::size_t removed = cache.RemoveExpired(now);
      EXPECT_EQ(removed, due.size()) << "step " << step;
      EXPECT_EQ(std::set<SeId>(feed.begin(), feed.end()), due)
          << "step " << step;
      for (const auto& [id, se] : cache.entries()) {
        EXPECT_FALSE(se.ExpiredAt(now)) << "step " << step << " id " << id;
      }
      swept += removed;
    }
  }
  EXPECT_GT(swept, 0u);
  EXPECT_GT(cache.counters().dedup_refreshes, 0u);
  EXPECT_GT(cache.counters().evictions, 0u);
}

TEST_F(ConcurrentEngineTest, ShardForFollowsPlacementAnchor) {
  // core/placement holds the one placement decision: the engine's shard
  // and the cluster router's ring key both come from a query's
  // PlacementAnchor, so queries with equal anchors share an engine shard.
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(),
                                 BaseOptions());
  const Tokenizer tokenizer;
  std::unordered_map<std::string, std::size_t> shard_of_anchor;
  std::size_t shared_anchors = 0;
  for (std::size_t topic = 0; topic < world_.universe->size(); ++topic) {
    for (const auto& q : world_.topic(topic).paraphrases) {
      const std::size_t shard = engine.ShardFor(q);
      EXPECT_EQ(shard, RouteToShard(world_.embedder, tokenizer, q,
                                    engine.num_shards()));
      const auto [it, fresh] = shard_of_anchor.emplace(
          PlacementAnchor(world_.embedder, tokenizer, q), shard);
      if (fresh) continue;
      ++shared_anchors;
      EXPECT_EQ(shard, it->second) << q;
    }
  }
  EXPECT_GT(shared_anchors, 0u);
}

// ---------------------------------------------------------------------------
// The engine as the sharded cache tier of the paper's Fig. 4: semantic
// routing, the capacity split and the cross-shard aggregates.  One
// virtual clock drives every engine here.

class ShardedCacheTest : public ::testing::Test {
 protected:
  ShardedCacheTest() : world_(60, /*seed=*/41) {}

  ConcurrentEngineOptions Options(std::size_t shards,
                                  double capacity = 1e6) {
    ConcurrentEngineOptions opts;
    opts.num_shards = shards;
    opts.cache.capacity_tokens = capacity;
    opts.housekeeping_interval_sec = 0.0;
    opts.clock = [this] { return now_; };
    return opts;
  }
  std::unique_ptr<ConcurrentShardedEngine> MakeEngine(std::size_t shards,
                                                      double capacity = 1e6) {
    return std::make_unique<ConcurrentShardedEngine>(
        &world_.embedder, world_.judger.get(), Options(shards, capacity));
  }

  InsertRequest RequestFor(std::size_t topic, std::size_t paraphrase = 0) {
    InsertRequest req;
    req.key = world_.query(topic, paraphrase);
    req.value = world_.answer(topic);
    req.staticity = world_.topic(topic).staticity;
    req.retrieval_latency_sec = 0.4;
    req.retrieval_cost_dollars = 0.005;
    req.initial_frequency = 1;
    return req;
  }

  static std::size_t ShardSize(const ConcurrentShardedEngine& engine,
                               std::size_t shard) {
    std::size_t size = 0;
    Peer::InspectShard(engine, shard,
                       [&](const SemanticCache& cache, const ShardSnapshot*) {
                         size = cache.size();
                       });
    return size;
  }

  MiniWorld world_;
  double now_ = 0.0;
};

TEST_F(ShardedCacheTest, ParaphrasesRouteToTheSameShard) {
  auto engine = MakeEngine(8);
  int stable_topics = 0;
  for (std::size_t topic = 0; topic < world_.universe->size(); ++topic) {
    std::set<std::size_t> shards;
    for (const auto& q : world_.topic(topic).paraphrases) {
      shards.insert(engine->ShardFor(q));
    }
    if (shards.size() == 1) ++stable_topics;
  }
  // IDF-anchored routing keeps the overwhelming majority of topics
  // shard-stable (an occasional template word can out-weigh the entity).
  EXPECT_GE(stable_topics,
            static_cast<int>(world_.universe->size() * 9 / 10));
}

TEST_F(ShardedCacheTest, RoutingIsDeterministic) {
  // Same query, same shard: on repeat calls and on a second engine.
  auto engine = MakeEngine(4);
  auto twin = MakeEngine(4);
  for (std::size_t topic = 0; topic < 10; ++topic) {
    const auto& q = world_.query(topic, 0);
    EXPECT_EQ(engine->ShardFor(q), engine->ShardFor(q));
    EXPECT_EQ(engine->ShardFor(q), twin->ShardFor(q));
  }
}

TEST_F(ShardedCacheTest, LookupFindsParaphraseAcrossTheShardedTier) {
  auto engine = MakeEngine(4);
  int hits = 0, attempts = 0;
  for (std::size_t topic = 0; topic < 30; ++topic) {
    ASSERT_TRUE(engine->Insert(RequestFor(topic, 0)).has_value());
    ++attempts;
    now_ += 1.0;
    if (engine->Lookup(world_.query(topic, 3))) ++hits;
  }
  // Same semantic behaviour as a monolithic cache for shard-stable topics.
  EXPECT_GE(hits, attempts * 8 / 10);
}

TEST_F(ShardedCacheTest, ShardsSplitTheCapacityBudget) {
  auto engine = MakeEngine(4, /*capacity=*/1000.0);
  EXPECT_DOUBLE_EQ(engine->per_shard_capacity_tokens(), 250.0);
  for (std::size_t i = 0; i < 4; ++i) {
    Peer::InspectShard(*engine, i,
                       [](const SemanticCache& cache, const ShardSnapshot*) {
                         EXPECT_DOUBLE_EQ(cache.capacity_tokens(), 250.0);
                       });
  }
}

TEST_F(ShardedCacheTest, LoadSpreadsAcrossShards) {
  auto engine = MakeEngine(4);
  for (std::size_t topic = 0; topic < world_.universe->size(); ++topic) {
    engine->Insert(RequestFor(topic));
  }
  // No shard should hold everything (routing is roughly balanced).
  std::size_t sum = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t size = ShardSize(*engine, i);
    EXPECT_LT(size, world_.universe->size());
    EXPECT_GT(size, 0u);
    sum += size;
  }
  EXPECT_EQ(engine->TotalSize(), sum);
}

TEST_F(ShardedCacheTest, AggregatedCountersSumShards) {
  auto engine = MakeEngine(2);
  engine->Insert(RequestFor(0));
  engine->Insert(RequestFor(1));
  now_ = 1.0;
  engine->Lookup(world_.query(0, 1));
  engine->Lookup(world_.query(1, 1));
  const auto totals = engine->TotalCounters();
  EXPECT_EQ(totals.insertions, 2u);
  EXPECT_EQ(totals.lookups, 2u);
  EXPECT_GE(totals.hits, 1u);
  EXPECT_GT(engine->TotalUsageTokens(), 0.0);

  CacheCounters sum;
  double usage = 0.0;
  for (std::size_t i = 0; i < engine->num_shards(); ++i) {
    Peer::InspectShard(*engine, i,
                       [&](const SemanticCache& cache, const ShardSnapshot*) {
                         sum.insertions += cache.counters().insertions;
                         sum.lookups += cache.counters().lookups;
                         sum.hits += cache.counters().hits;
                         usage += cache.usage_tokens();
                       });
  }
  EXPECT_EQ(totals.insertions, sum.insertions);
  EXPECT_EQ(totals.lookups, sum.lookups);
  EXPECT_EQ(totals.hits, sum.hits);
  EXPECT_DOUBLE_EQ(engine->TotalUsageTokens(), usage);
}

TEST_F(ShardedCacheTest, ContainsKeyAndExpiryWorkThroughTheRouter) {
  ConcurrentEngineOptions opts = Options(4);
  opts.cache.min_ttl_sec = 10.0;
  opts.cache.max_ttl_sec = 20.0;
  ConcurrentShardedEngine engine(&world_.embedder, world_.judger.get(), opts);
  engine.Insert(RequestFor(0));
  EXPECT_TRUE(engine.ContainsKey(world_.query(0, 0)));
  now_ = 100.0;
  EXPECT_EQ(engine.RemoveExpired(), 1u);
  EXPECT_FALSE(engine.ContainsKey(world_.query(0, 0)));
}

TEST_F(ShardedCacheTest, SingleShardDegeneratesToMonolith) {
  auto engine = MakeEngine(1);
  for (std::size_t topic = 0; topic < 20; ++topic) {
    EXPECT_EQ(engine->ShardFor(world_.query(topic, 0)), 0u);
    engine->Insert(RequestFor(topic));
  }
  EXPECT_EQ(ShardSize(*engine, 0), engine->TotalSize());
  now_ = 1.0;
  EXPECT_TRUE(engine->Lookup(world_.query(5, 2)).has_value());
}

}  // namespace
}  // namespace cortex
