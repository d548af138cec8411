// Snapshot-under-traffic: SaveSnapshot/LoadSnapshot racing live writers,
// readers (whose hit commits upgrade to the exclusive lock), and the
// background housekeeping thread purging aggressive TTLs.  The assertions
// are deliberately coarse — the real check is that the TSan leg
// (scripts/tsan.sh) sees no data race between the snapshot reader's
// per-shard shared locks and the mutating paths.  SnapshotLifetimeTest
// pins a snapshot while the writer removes entries the snapshot's records
// borrow from.
#include "serve/concurrent_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "llm/tags.h"
#include "serve/shard_snapshot.h"
#include "test_helpers.h"
#include "util/epoch.h"

namespace cortex {
namespace {

using cortex::testing::MiniWorld;

class SnapshotTrafficTest : public ::testing::Test {
 protected:
  SnapshotTrafficTest() : world_(48, /*seed=*/47) {}

  InsertRequest RequestFor(std::size_t topic) {
    InsertRequest req;
    req.key = world_.query(topic, 0);
    req.value = world_.answer(topic);
    req.staticity = world_.topic(topic).staticity;
    req.initial_frequency = 1;
    return req;
  }

  MiniWorld world_;
};

TEST_F(SnapshotTrafficTest, SaveAndLoadRaceWritersReadersAndTtlPurge) {
  serve::ConcurrentEngineOptions opts;
  opts.num_shards = 4;
  opts.cache.capacity_tokens = 1e6;
  // Aggressive wall-clock TTLs + a hot housekeeping cadence so expiry
  // purges genuinely interleave with the snapshot stream.
  opts.cache.min_ttl_sec = 0.01;
  opts.cache.max_ttl_sec = 0.05;
  opts.housekeeping_interval_sec = 0.001;
  serve::ConcurrentShardedEngine engine(&world_.embedder,
                                        world_.judger.get(), opts);

  std::atomic<bool> stop{false};

  // Writer: keeps the topic entries populated (dedup refresh renews their
  // TTLs), and interleaves unique one-shot keys at the minimum staticity —
  // those are never renewed, so the TTL reaper has real work to do while
  // snapshots stream.
  std::thread writer([&] {
    std::size_t n = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      engine.Insert(RequestFor(n % world_.universe->size()));
      InsertRequest churn;
      churn.key = "one-shot churn key " + std::to_string(n);
      churn.value = "short-lived filler value " + std::to_string(n);
      churn.staticity = 1.0;  // min TTL: expires in 10ms
      churn.initial_frequency = 1;
      engine.Insert(std::move(churn));
      ++n;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  // Readers: paraphrase lookups — a hit's frequency commit takes the
  // exclusive shard lock, racing the snapshot's shared lock.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      std::size_t i = static_cast<std::size_t>(r);
      while (!stop.load(std::memory_order_relaxed)) {
        engine.Lookup(world_.query(i % world_.universe->size(), 1 + r));
        ++i;
      }
    });
  }

  // Main thread: snapshot out and restore back, repeatedly, mid-traffic.
  std::uint64_t saved_total = 0, restored_total = 0;
  for (int round = 0; round < 8; ++round) {
    std::stringstream buffer;
    const SnapshotStats saved = engine.SaveSnapshot(buffer);
    saved_total += saved.entries_written;
    const SnapshotStats loaded = engine.LoadSnapshot(buffer);
    restored_total += loaded.entries_restored;
    // Everything written is accounted for on restore: re-admitted, expired
    // in transit (tiny TTLs), or deduped against a concurrent re-insert.
    EXPECT_EQ(loaded.entries_restored + loaded.entries_expired +
                  loaded.entries_rejected,
              saved.entries_written)
        << "round " << round;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  stop.store(true, std::memory_order_relaxed);
  writer.join();
  for (auto& t : readers) t.join();

  // The writer keeps ~48 live topics flowing, so snapshots were non-trivial.
  EXPECT_GT(saved_total, 0u);
  EXPECT_GT(restored_total, 0u);

  // Housekeeping really purged TTLs while the snapshots streamed.
  const auto stats = engine.Stats();
  EXPECT_GT(stats.expired_removed, 0u);
  EXPECT_GT(stats.housekeeping_runs, 0u);
  EXPECT_GT(stats.inserts, 0u);

  // The engine is still fully serviceable after the churn.
  engine.StopHousekeeping();
  auto req = RequestFor(0);
  req.key += " (post-churn)";
  ASSERT_TRUE(engine.Insert(std::move(req)).has_value());
  EXPECT_TRUE(engine.ContainsKey(world_.query(0, 0) + " (post-churn)"));
}

TEST_F(SnapshotTrafficTest, SnapshotIsPerShardConsistentUnderChurn) {
  // Narrower variant: one writer hammering a single hot topic (dedup
  // refresh path) while snapshots stream — catches torn per-element state.
  serve::ConcurrentEngineOptions opts;
  opts.num_shards = 2;
  opts.cache.capacity_tokens = 1e6;
  opts.housekeeping_interval_sec = 0.0;
  serve::ConcurrentShardedEngine engine(&world_.embedder,
                                        world_.judger.get(), opts);
  for (std::size_t topic = 0; topic < 16; ++topic) {
    ASSERT_TRUE(engine.Insert(RequestFor(topic)).has_value());
  }

  std::atomic<bool> stop{false};
  std::thread churner([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      engine.Insert(RequestFor(3));  // dedup-refresh the same entry
      engine.RemoveExpired();
    }
  });

  for (int round = 0; round < 20; ++round) {
    std::stringstream buffer;
    const SnapshotStats saved = engine.SaveSnapshot(buffer);
    EXPECT_GE(saved.entries_written, 16u) << "round " << round;
    // Each element in the stream parses back intact.
    std::uint64_t seen = 0;
    buffer.seekg(0);
    EXPECT_NO_THROW(seen = serve::ForEachEngineSnapshotElement(
                        buffer, [](SemanticElement se) {
                          EXPECT_FALSE(se.key.empty());
                          EXPECT_FALSE(se.value.empty());
                        }));
    EXPECT_EQ(seen, saved.entries_written) << "round " << round;
  }
  stop.store(true, std::memory_order_relaxed);
  churner.join();
}

// Snapshot records borrow key, value and embedding from the cache's SEs.
// A reader pinned on a snapshot must keep reading the original bytes after
// the writer removes the entry, by every removal path, and the removed SE
// must be freed once the reader has left and the grace period passed.
// Under ASan, a removal that frees the SE on the spot (instead of parking
// it beside its record) is a heap-use-after-free in the reader below.
class SnapshotLifetimeTest : public ::testing::Test {
 protected:
  SnapshotLifetimeTest()
      : world_(48, /*seed=*/53),
        writer_(world_.embedder.dimension()) {}

  ~SnapshotLifetimeTest() override {
    delete published_.exchange(nullptr, std::memory_order_seq_cst);
  }

  void MakeCache(SemanticCacheOptions options) {
    options.min_ttl_sec = 10.0;
    options.max_ttl_sec = 20.0;
    cache_ = std::make_unique<SemanticCache>(
        &world_.embedder, /*index=*/nullptr, world_.judger.get(),
        MakeEviction(EvictionKind::kLcfu), options);
    cache_->set_change_sink(&changed_);
    cache_->set_retire_sink(&retired_);
  }

  // Keys and values long enough to live on the heap, not inline.
  InsertRequest Request(std::size_t i, std::string tenant = {}) const {
    InsertRequest req;
    req.key = world_.query(i, 0) + " (lifetime key)";
    req.value = world_.answer(i) + " (lifetime value)";
    req.tenant = std::move(tenant);
    return req;
  }

  SeId Insert(InsertRequest req) {
    const auto id = cache_->Insert(std::move(req), now_);
    EXPECT_TRUE(id.has_value());
    return id.value_or(0);
  }

  void Sync() {
    writer_.Sync(*cache_, changed_, retired_, published_, epoch_);
  }

  // A reader thread pins the published snapshot and copies every record's
  // bytes; `remove` then runs here and is published.  The reader compares
  // each record it still holds against its copy, leaves, and after a grace
  // period every parked SE must be freed.  Returns the pinned ids that
  // `remove` took out of the cache.
  std::set<SeId> RemoveUnderPinnedReader(const std::function<void()>& remove) {
    Sync();
    struct Pinned {
      const serve::ProbeRecord* record;
      std::string key;
      std::string value;
      Vector embedding;
    };
    std::vector<Pinned> pinned;
    std::size_t mismatches = 0;
    std::promise<void> ready;
    std::promise<void> removed;
    std::thread reader([&] {
      EpochReadGuard guard(epoch_);
      const serve::ShardSnapshot* snap =
          published_.load(std::memory_order_seq_cst);
      for (std::size_t i = 0; i < snap->size(); ++i) {
        const serve::ProbeRecord* rec = snap->record(i);
        pinned.push_back({rec, std::string(rec->key), std::string(rec->value),
                          Vector(rec->embedding.begin(),
                                 rec->embedding.end())});
      }
      ready.set_value();
      removed.get_future().wait();
      for (const Pinned& p : pinned) {
        if (p.record->key != p.key || p.record->value != p.value ||
            !std::ranges::equal(p.record->embedding, p.embedding)) {
          ++mismatches;
        }
      }
    });
    ready.get_future().wait();
    remove();
    Sync();
    // However often the writer flushes and syncs, the pinned reader holds
    // the grace period open.
    for (int i = 0; i < 4; ++i) epoch_.Flush();
    Sync();
    std::set<SeId> gone;
    for (const Pinned& p : pinned) {
      if (cache_->Get(p.record->id) == nullptr) gone.insert(p.record->id);
    }
    EXPECT_GE(writer_.retired_elements(), gone.size());
    removed.set_value();
    reader.join();
    EXPECT_EQ(mismatches, 0u);

    for (int i = 0; i < 3; ++i) epoch_.Flush();
    Sync();
    EXPECT_EQ(writer_.retired_elements(), 0u);
    return gone;
  }

  MiniWorld world_;
  EpochDomain epoch_;
  std::unique_ptr<SemanticCache> cache_;
  std::vector<SeId> changed_;
  std::vector<SemanticCache::RetiredElement> retired_;
  serve::SnapshotWriter writer_;
  std::atomic<const serve::ShardSnapshot*> published_{nullptr};
  double now_ = 1.0;
};

TEST_F(SnapshotLifetimeTest, EvictionKeepsPinnedBytes) {
  SemanticCacheOptions options;
  options.capacity_tokens = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    options.capacity_tokens +=
        static_cast<double>(ApproxTokenCount(Request(i).value));
  }
  MakeCache(options);
  std::set<SeId> ids;
  for (std::size_t i = 0; i < 4; ++i) ids.insert(Insert(Request(i)));
  const std::set<SeId> gone =
      RemoveUnderPinnedReader([&] { Insert(Request(4)); });
  EXPECT_GT(cache_->counters().evictions, 0u);
  EXPECT_FALSE(gone.empty());
  for (const SeId id : gone) EXPECT_TRUE(ids.contains(id));
}

TEST_F(SnapshotLifetimeTest, TtlPurgeKeepsPinnedBytes) {
  MakeCache({});
  for (std::size_t i = 0; i < 4; ++i) Insert(Request(i));
  const std::set<SeId> gone = RemoveUnderPinnedReader(
      [&] { EXPECT_EQ(cache_->RemoveExpired(now_ + 100.0), 4u); });
  EXPECT_EQ(gone.size(), 4u);
  EXPECT_EQ(cache_->counters().expirations, 4u);
}

TEST_F(SnapshotLifetimeTest, ExactKeyReplaceKeepsPinnedBytes) {
  MakeCache({});
  const SeId old_id = Insert(Request(0));
  Insert(Request(1));
  const std::set<SeId> gone = RemoveUnderPinnedReader([&] {
    InsertRequest req = Request(0);
    req.value = world_.answer(2) + " (replacement value)";
    Insert(std::move(req));
  });
  EXPECT_EQ(gone, std::set<SeId>{old_id});
}

TEST_F(SnapshotLifetimeTest, PromotionReplacingSharedCopyKeepsPinnedBytes) {
  SemanticCacheOptions options;
  options.promote_distinct_tenants = 2;
  MakeCache(options);
  // The shared pool holds key K; tenant "a" holds the same key with other
  // content.  A second tenant fetching a's value promotes a's copy, which
  // then replaces the shared K.
  const SeId shared_id = Insert(Request(0));
  InsertRequest private_req = Request(0, "a");
  private_req.value = world_.answer(1) + " (promoted value)";
  const std::string promoted_value = private_req.value;
  Insert(std::move(private_req));
  const std::set<SeId> gone = RemoveUnderPinnedReader([&] {
    InsertRequest req = Request(2, "b");
    req.value = promoted_value;
    Insert(std::move(req));
  });
  EXPECT_EQ(cache_->counters().promotions, 1u);
  EXPECT_EQ(gone, std::set<SeId>{shared_id});
}

TEST_F(SnapshotLifetimeTest, RestoreReplaceKeepsPinnedBytes) {
  MakeCache({});
  const SeId old_id = Insert(Request(0));
  Insert(Request(1));
  const std::set<SeId> gone = RemoveUnderPinnedReader([&] {
    SemanticElement se;
    se.key = Request(0).key;
    se.value = world_.answer(3) + " (restored value)";
    se.created_at = now_;
    se.expiration_time = now_ + 50.0;
    EXPECT_TRUE(cache_->RestoreElement(std::move(se), now_).has_value());
  });
  EXPECT_EQ(gone, std::set<SeId>{old_id});
}

}  // namespace
}  // namespace cortex
