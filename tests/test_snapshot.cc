#include "core/snapshot.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "ann/flat_index.h"
#include "core/eviction.h"
#include "test_helpers.h"

namespace cortex {
namespace {

using cortex::testing::MiniWorld;

class SnapshotTest : public ::testing::Test {
 protected:
  std::unique_ptr<SemanticCache> MakeCache(double capacity = 1e6,
                                           double min_ttl = 1e5,
                                           double max_ttl = 1e6) {
    SemanticCacheOptions opts;
    opts.capacity_tokens = capacity;
    opts.min_ttl_sec = min_ttl;
    opts.max_ttl_sec = max_ttl;
    return std::make_unique<SemanticCache>(
        &world_.embedder,
        std::make_unique<FlatIndex>(world_.embedder.dimension()),
        world_.judger.get(), std::make_unique<LcfuPolicy>(), opts);
  }

  void FillTopics(SemanticCache& cache, std::size_t n, double now = 0.0) {
    for (std::size_t i = 0; i < n; ++i) {
      InsertRequest req;
      req.key = world_.query(i, 0);
      req.value = world_.answer(i);
      req.staticity = world_.topic(i).staticity;
      req.retrieval_latency_sec = 0.4;
      req.retrieval_cost_dollars = 0.005;
      ASSERT_TRUE(cache.Insert(std::move(req), now).has_value());
    }
  }

  MiniWorld world_;
};

TEST_F(SnapshotTest, RoundTripRestoresEverything) {
  auto cache = MakeCache();
  FillTopics(*cache, 10);
  // Accumulate some history.
  cache->Lookup(world_.query(3, 2), 5.0);
  cache->Lookup(world_.query(3, 4), 6.0);

  std::stringstream stream;
  const auto saved = SaveCacheSnapshot(*cache, stream, /*now=*/6.0);
  EXPECT_EQ(saved.entries_written, 10u);

  auto fresh = MakeCache();
  const auto loaded = LoadCacheSnapshot(*fresh, stream, /*now=*/10.0);
  EXPECT_EQ(loaded.entries_restored, 10u);
  EXPECT_EQ(loaded.entries_expired, 0u);
  EXPECT_EQ(fresh->size(), 10u);

  // Semantic lookups work immediately on the restored cache.
  const auto hit = fresh->Lookup(world_.query(3, 5), 11.0);
  ASSERT_TRUE(hit.hit.has_value());
  EXPECT_EQ(hit.hit->value, world_.answer(3));

  // Accumulated frequency survived the round trip (insert credit + at
  // least one confirmed pre-save hit + the hit above).
  const SemanticElement* se = fresh->Get(hit.hit->id);
  EXPECT_GE(se->frequency, 3u);
  EXPECT_DOUBLE_EQ(se->retrieval_latency_sec, 0.4);
}

TEST_F(SnapshotTest, ExpiredEntriesDroppedAtLoad) {
  // Entries past their TTL in the writer's clock but not yet purged are
  // written, and dropped at load whatever the reader's clock reads.
  auto cache = MakeCache(1e6, /*min_ttl=*/10.0, /*max_ttl=*/20.0);
  FillTopics(*cache, 5, /*now=*/0.0);
  std::stringstream stream;
  SaveCacheSnapshot(*cache, stream, /*now=*/1000.0);

  auto fresh = MakeCache();
  const auto loaded = LoadCacheSnapshot(*fresh, stream, /*now=*/0.0);
  EXPECT_EQ(loaded.entries_restored, 0u);
  EXPECT_EQ(loaded.entries_expired, 5u);
  EXPECT_EQ(fresh->size(), 0u);
}

TEST_F(SnapshotTest, LoadIntoSmallerCacheRespectsCapacity) {
  auto cache = MakeCache();
  FillTopics(*cache, 12);
  std::stringstream stream;
  SaveCacheSnapshot(*cache, stream, 0.0);

  // Room for roughly three answers.
  auto tiny = MakeCache(3.2 * 70.0);
  const auto loaded = LoadCacheSnapshot(*tiny, stream, 0.0);
  EXPECT_EQ(loaded.entries_restored + loaded.entries_rejected, 12u);
  EXPECT_LE(tiny->usage_tokens(), tiny->capacity_tokens());
}

TEST_F(SnapshotTest, LoadMergesWithExistingContents) {
  auto a = MakeCache();
  FillTopics(*a, 4);
  std::stringstream stream;
  SaveCacheSnapshot(*a, stream, 0.0);

  auto b = MakeCache();
  FillTopics(*b, 8);  // topics 0-7 already resident, values identical 0-3
  const auto loaded = LoadCacheSnapshot(*b, stream, 0.0);
  EXPECT_EQ(loaded.entries_restored, 4u);  // dedup refreshes count as restored
  EXPECT_EQ(b->size(), 8u);                // no duplicates created
}

TEST_F(SnapshotTest, BadMagicThrows) {
  std::stringstream stream;
  stream << "not a snapshot at all";
  auto cache = MakeCache();
  EXPECT_THROW(LoadCacheSnapshot(*cache, stream, 0.0), std::runtime_error);
}

TEST_F(SnapshotTest, TruncatedStreamThrows) {
  auto cache = MakeCache();
  FillTopics(*cache, 6);
  std::stringstream stream;
  SaveCacheSnapshot(*cache, stream, 0.0);
  const std::string full = stream.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  auto fresh = MakeCache();
  EXPECT_THROW(LoadCacheSnapshot(*fresh, cut, 0.0), std::runtime_error);
  // The whole blob is validated before anything is restored.
  EXPECT_EQ(fresh->size(), 0u);
}

TEST_F(SnapshotTest, FlippedBitFailsTheSectionChecksum) {
  auto cache = MakeCache();
  FillTopics(*cache, 6);
  std::stringstream stream;
  SaveCacheSnapshot(*cache, stream, 0.0);
  std::string blob = stream.str();
  // One bit of the last record's shareable flag: every length still
  // parses, so only the CRC can catch it.
  blob[blob.size() - 8] ^= 0x02;
  std::stringstream corrupt(blob);
  auto fresh = MakeCache();
  try {
    LoadCacheSnapshot(*fresh, corrupt, 0.0);
    FAIL() << "a corrupt section loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(fresh->size(), 0u);
}

TEST_F(SnapshotTest, OversizedLengthThrowsBeforeAllocating) {
  // A 40-byte blob whose first key claims 1 GiB: rejected against the
  // bytes left, not allocated and then found short.
  std::stringstream stream;
  WriteSnapshotHeader(stream, 0.0, 1);
  const std::uint64_t entries = 1;
  const std::uint64_t key_length = std::uint64_t{1} << 30;
  stream.write(reinterpret_cast<const char*>(&entries), sizeof entries);
  stream.write(reinterpret_cast<const char*>(&key_length), sizeof key_length);
  auto fresh = MakeCache();
  EXPECT_THROW(LoadCacheSnapshot(*fresh, stream, 0.0), std::runtime_error);
  EXPECT_EQ(fresh->size(), 0u);
}

TEST_F(SnapshotTest, OldVersionBlobIsRejected) {
  // Version 2 blobs carry no writer clock; restoring one would date its
  // entries in a foreign clock.  They fail before any state changes.
  std::stringstream stream;
  const std::uint32_t header[2] = {kSnapshotMagic, 2};
  const std::uint64_t entries = 0;
  stream.write(reinterpret_cast<const char*>(header), sizeof header);
  stream.write(reinterpret_cast<const char*>(&entries), sizeof entries);
  auto fresh = MakeCache();
  try {
    LoadCacheSnapshot(*fresh, stream, 0.0);
    FAIL() << "a version 2 blob loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version 2"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(fresh->size(), 0u);
}

TEST_F(SnapshotTest, WarmRestartAtAnotherClockKeepsEachEntrysAge) {
  // The writer ran its clock to 200; a restarted process starts from 0
  // (or any other reading).  Each entry keeps its age, its idle time and
  // its remaining TTL, measured from the reader's now.
  auto cache = MakeCache(1e6, /*min_ttl=*/1000.0, /*max_ttl=*/2000.0);
  FillTopics(*cache, 4, /*now=*/100.0);
  ASSERT_TRUE(cache->Lookup(world_.query(1, 2), 150.0).hit.has_value());
  std::map<std::string, SemanticElement> before;
  for (const auto& [id, se] : cache->entries()) before.emplace(se.key, se);
  constexpr double kWriterNow = 200.0;
  std::stringstream stream;
  SaveCacheSnapshot(*cache, stream, kWriterNow);
  const std::string blob = stream.str();

  for (const double reader_now : {0.0, 5000.0}) {
    std::stringstream in(blob);
    auto fresh = MakeCache(1e6, /*min_ttl=*/1000.0, /*max_ttl=*/2000.0);
    const auto loaded = LoadCacheSnapshot(*fresh, in, reader_now);
    EXPECT_EQ(loaded.entries_restored, 4u) << "reader_now " << reader_now;
    EXPECT_EQ(loaded.entries_expired, 0u) << "reader_now " << reader_now;
    for (const auto& [id, se] : fresh->entries()) {
      const SemanticElement& old = before.at(se.key);
      EXPECT_DOUBLE_EQ(reader_now - se.created_at, kWriterNow - old.created_at);
      EXPECT_DOUBLE_EQ(reader_now - se.last_access,
                       kWriterNow - old.last_access);
      EXPECT_DOUBLE_EQ(se.TtlRemaining(reader_now),
                       old.TtlRemaining(kWriterNow));
    }
    // Restored entries serve at once: none is dated into the future.
    EXPECT_TRUE(
        fresh->Lookup(world_.query(2, 3), reader_now).hit.has_value())
        << "reader_now " << reader_now;
  }
}

TEST_F(SnapshotTest, FileRoundTrip) {
  auto cache = MakeCache();
  FillTopics(*cache, 6);
  const std::string path = ::testing::TempDir() + "/cortex_snapshot.bin";
  SaveCacheSnapshotFile(*cache, path, 0.0);
  auto fresh = MakeCache();
  const auto loaded = LoadCacheSnapshotFile(*fresh, path, 0.0);
  EXPECT_EQ(loaded.entries_restored, 6u);
  EXPECT_TRUE(fresh->Lookup(world_.query(2, 3), 1.0).hit.has_value());
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, V2RoundTripPreservesTenantAndShareable) {
  auto cache = MakeCache();
  InsertRequest req;
  req.key = world_.query(0, 0);
  req.value = world_.answer(0);
  req.staticity = world_.topic(0).staticity;
  req.tenant = "acme";
  req.shareable = false;
  ASSERT_TRUE(cache->Insert(std::move(req), 0.0).has_value());

  std::stringstream stream;
  SaveCacheSnapshot(*cache, stream, 0.0);

  auto fresh = MakeCache();
  const auto loaded = LoadCacheSnapshot(*fresh, stream, 0.0);
  EXPECT_EQ(loaded.entries_restored, 1u);
  ASSERT_EQ(fresh->size(), 1u);
  for (const auto& [id, restored] : fresh->entries()) {
    EXPECT_EQ(restored.tenant, "acme");
    EXPECT_FALSE(restored.shareable);
  }
  // The namespace boundary survived the restart.
  EXPECT_TRUE(fresh->ContainsKey(world_.query(0, 0), "acme"));
  EXPECT_FALSE(fresh->ContainsKey(world_.query(0, 0)));
  EXPECT_TRUE(fresh->Lookup(world_.query(0, 1), 1.0, "acme").hit.has_value());
  EXPECT_FALSE(fresh->Lookup(world_.query(0, 2), 2.0, "other").hit.has_value());
}

TEST_F(SnapshotTest, RestoreElementRecomputesMissingEmbedding) {
  auto cache = MakeCache();
  SemanticElement se;
  se.key = world_.query(0, 0);
  se.value = world_.answer(0);
  se.staticity = 8.0;
  se.frequency = 3;
  se.expiration_time = 1e9;
  // No embedding supplied: RestoreElement must recompute it.
  const auto id = cache->RestoreElement(std::move(se), 0.0);
  ASSERT_TRUE(id.has_value());
  EXPECT_TRUE(cache->Lookup(world_.query(0, 2), 1.0).hit.has_value());
}

}  // namespace
}  // namespace cortex
