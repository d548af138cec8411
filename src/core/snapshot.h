// Cache snapshots: serialize a SemanticCache's full contents — keys,
// values, embeddings, and the per-SE metadata every policy depends on — so
// a deployment can restart warm instead of re-paying a cold cache's worth
// of remote fetches, and so cluster migration can move entries between
// nodes.  This module owns the only snapshot format in the tree: the
// serving engine and the cluster router compose streams from the
// primitives below and never touch the bytes themselves.
//
// Timestamps cross the wire relative to the writer's clock.  Every clock
// in the tree counts from its own origin (a virtual simulation clock, or
// seconds since an engine was constructed), so the header records the
// writer's clock reading at save time, and every load shifts created_at,
// last_access and expiration_time by reader_now − writer_now.  An entry
// therefore keeps its age and its remaining TTL across a warm restart or a
// migration; entries whose lifetime has passed by load time are dropped.
//
// Format (native endianness — a node restarts on the machine class it ran
// on; cross-architecture portability is out of scope):
//   header   u32 magic "CRCX", u32 version, f64 writer_now,
//            u64 section_count
//   section  u64 entry_count, entry_count records, u32 CRC32C of
//            writer_now and the section's preceding bytes
//   record   key, value (u64 length + bytes), embedding (u64 length +
//            f32s), staticity, frequency, retrieval latency and cost,
//            created_at, last_access, expiration_time, tenant, u32
//            shareable
// Only the current version is read.  Older blobs carry no writer clock, so
// restoring them would hide or expire their entries on any node whose
// clock differs; they are rejected with "unsupported version".
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/semantic_cache.h"

namespace cortex {

inline constexpr std::uint32_t kSnapshotMagic = 0x43524358;  // "CRCX"
inline constexpr std::uint32_t kSnapshotVersion = 3;

struct SnapshotStats {
  std::size_t entries_written = 0;
  std::size_t entries_restored = 0;
  std::size_t entries_expired = 0;   // dropped at load time (TTL passed)
  std::size_t entries_rejected = 0;  // did not fit the target's capacity
};

// Writes every resident SE as a one-section snapshot stamped with `now`,
// the cache's clock at save time.  Throws std::runtime_error on a stream
// failure.
SnapshotStats SaveCacheSnapshot(const SemanticCache& cache, std::ostream& out,
                                double now);

// Restores a snapshot into `cache` (which may already hold entries; keys
// and values dedup as usual).  `now` is the cache's clock at load time:
// timestamps are rebased onto it and expired entries dropped.  Throws
// std::runtime_error on malformed input, before any entry is restored.
SnapshotStats LoadCacheSnapshot(SemanticCache& cache, std::istream& in,
                                double now);

// File-path conveniences.
SnapshotStats SaveCacheSnapshotFile(const SemanticCache& cache,
                                    const std::string& path, double now);
SnapshotStats LoadCacheSnapshotFile(SemanticCache& cache,
                                    const std::string& path, double now);

// ---------------------------------------------------------------------------
// Stream primitives for tiers whose shard layout differs between writer
// and reader: the concurrent engine writes one section per shard, and
// cluster migration decodes a node's blob, keeps the entries the joiner
// will own and re-packs them as one section stamped with the source's
// writer_now.  Readers re-route every element by key, whatever their shard
// count.

void WriteSnapshotHeader(std::ostream& out, double writer_now,
                         std::uint64_t section_count);
// One section holding every resident SE of `cache`.  `writer_now` is the
// header's: each section's CRC covers it, so a corrupt writer clock fails
// the load instead of shifting every TTL.
void WriteSnapshotSection(std::ostream& out, double writer_now,
                          const SemanticCache& cache);
// One section holding `elements`.
void WriteSnapshotSection(std::ostream& out, double writer_now,
                          const std::vector<SemanticElement>& elements);

struct DecodedSnapshot {
  double writer_now = 0.0;
  std::vector<SemanticElement> elements;  // timestamps in the writer's clock
};

// Reads the rest of `in` as one snapshot and validates all of it — magic,
// version, every length against the bytes left, every section's CRC, no
// trailing bytes — before returning.  Throws std::runtime_error on any
// failure.
DecodedSnapshot DecodeSnapshot(std::istream& in);

// The one load loop: rebases each element onto `reader_now`, drops the
// ones that expired in transit, and hands the rest to `restore`, which
// returns whether the target admitted the element.
SnapshotStats RestoreSnapshot(
    DecodedSnapshot snapshot, double reader_now,
    const std::function<bool(SemanticElement)>& restore);

}  // namespace cortex
