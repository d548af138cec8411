// ShardSnapshot: the immutable per-shard state a lock-free probe reads.
//
// The serving engine's lock-free read path (DESIGN.md §13) never touches
// the shard's shared_mutex.  Instead, every write that changes what a
// probe could observe publishes a new ShardSnapshot under the write lock
// through a seq_cst atomic pointer; readers pin it with an EpochReadGuard
// (util/epoch.h).  Per the epoch contract, BOTH sides of the pointer
// hand-off are seq_cst: exchange on publish, load under the guard.
//
// A snapshot is a header (dimension, frozen Sine thresholds) over an
// immutable spine of chunks.  Each SnapshotChunk holds up to
// kSnapshotChunkRows (32) entries: their record pointers, their i8 row
// scales, and their i8 codes stored dimension-major — column d, the d-th
// code of every row, is 32 contiguous bytes.  The hashed embedder spreads
// each token over 4 of 256 slots, so a query's code has about 20 nonzero
// entries of 256 (19.6 measured on perfbench scan_large); the scan reads
// only those columns, about one byte in thirteen of what a row-major
// scan reads.  Chunks are kept dense (every chunk but the last is full)
// by swap-remove, so snapshot position i lives at chunks[i / 32] slot
// i % 32.  SnapshotWriter owns the chunks and the records: a write copies
// only the chunks it touches (about 8.6 KB each at dim 256) plus the
// O(n/32) spine, and consecutive snapshots share every other chunk.  32
// rows fill one AVX2 column load and keep that copy small; a 256-row
// chunk would copy 64 KB per write.  A record borrows its key, value and
// fp32 embedding from the cache's SemanticElement, so each resident
// entry's payload exists once per shard.
//
// Probing is two-phase, mirroring FlatIndex::Search's variant-stable
// ranking (ann/flat_index.cc):
//   1. scan — one i8 column-kernel pass per chunk over the query's
//      nonzero codes, prefilter at tau_sim minus kQuantSimSlack, keep a
//      pool of the best max(4*top_k, 32) candidates.  The i32 dot is
//      exact, so every score equals the row-major gather kernel's bit for
//      bit;
//   2. rerank — rescore the pool with the scalar double-precision fp32
//      kernel, filter/sort/truncate exactly like FlatIndex.  Because the
//      exact rerank reads fp32 originals, the final top-k and hit
//      decision are bit-identical to a Sine over a kFlat index of the
//      same entries (the tests' oracle) whatever SIMD variant ran
//      phase 1.
//
// Both phases and stage 2 (visibility plus the judger best-first walk,
// SnapshotJudge) run INSIDE the epoch guard over records borrowed from
// the snapshot, and allocate nothing on the steady state: callers pass a
// ProbeScratch whose vectors amortize to the shard's high-water mark.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/semantic_cache.h"
#include "core/sine.h"
#include "embedding/simd_kernels.h"
#include "util/epoch.h"

namespace cortex::serve {

// Probe-relevant fields of one resident SE.  Immutable after
// construction; a record is replaced (never mutated) when its
// fingerprint — (created_at, expiration_time, tenant) — changes.
struct ProbeRecord {
  SeId id = 0;
  // Borrowed from the SE, which never changes them while resident.  When
  // the cache removes the SE, its node parks in SnapshotWriter's limbo
  // beside this record and is freed with it.
  std::string_view key;
  std::string_view value;
  std::span<const float> embedding;  // fp32 original, the exact-rerank source
  // The fingerprint, copied: the cache rewrites these fields of a resident
  // SE in place (dedup refresh, promotion), so readers never read them
  // from the SE.
  std::string tenant;
  double created_at = 0.0;
  double expiration_time = 0.0;
};

// Entries per chunk: one block of the i8 column kernel.
inline constexpr std::size_t kSnapshotChunkRows = simd::kI8BlockRows;

// Up to kSnapshotChunkRows entries.  Slots at or past `size` hold stale
// or zero bytes; the scan scores them and ignores the result.
class SnapshotChunk {
 public:
  explicit SnapshotChunk(std::size_t dim);
  // Copy-on-write: the header arrays and all dim columns.
  SnapshotChunk(const SnapshotChunk& other);
  SnapshotChunk& operator=(const SnapshotChunk&) = delete;

  std::uint32_t size = 0;
  const ProbeRecord* records[kSnapshotChunkRows] = {};
  float scales[kSnapshotChunkRows] = {};  // each row's quantization scale

  // dim x kSnapshotChunkRows i8 codes, dimension-major: code d of slot k
  // is codes()[d * kSnapshotChunkRows + k].
  const std::int8_t* codes() const noexcept { return codes_; }
  std::int8_t* codes() noexcept { return codes_; }

 private:
  std::size_t dim_;
  // A plain allocation with the code block rounded up inside it to 32
  // bytes, so no column straddles a cache line.  An over-aligned `new`
  // would cost far more resident memory than the 31 spare bytes.
  std::unique_ptr<std::int8_t[]> storage_;
  std::int8_t* codes_;
};

struct ShardSnapshot {
  std::size_t dim = 0;
  // Sine thresholds frozen at publish time (recalibration republishes).
  SineOptions sine;
  std::size_t entries = 0;
  // Dense spine: every chunk but the last holds kSnapshotChunkRows.
  // Chunks and records both outlive every reader of this snapshot
  // (SnapshotWriter's limbo protocol).
  std::vector<const SnapshotChunk*> chunks;

  std::size_t size() const noexcept { return entries; }
  const ProbeRecord* record(std::size_t i) const noexcept {
    return chunks[i / kSnapshotChunkRows]->records[i % kSnapshotChunkRows];
  }
};

// Quantized-similarity slack subtracted from tau_sim when prefiltering
// scan scores (phase 1).  i8 roundtrip error on unit vectors is ~2e-3;
// 0.02 absorbs it with a wide margin, and the exact rerank removes every
// false admit.
inline constexpr double kQuantSimSlack = 0.02;

// One exact-reranked survivor, sorted best-first.  `record` is BORROWED
// from the snapshot: it is valid only while the EpochReadGuard that
// pinned the snapshot is held.
struct RankedCandidate {
  double sim = 0.0;
  const ProbeRecord* record = nullptr;
};

// Reusable scan scratch.  Probe throughput is allocation-sensitive:
// keep one per thread and the vectors grow once to the shard's
// high-water mark, making steady-state probes allocation-free.
struct ProbeScratch {
  std::vector<float> sims;          // one score per chunk slot
  std::vector<std::int8_t> q8;      // the quantized query
  // Its nonzero codes in pairs (the column kernel's operands): dimension
  // and code, padded to an even count with a zero weight.
  std::vector<std::uint32_t> cols;
  std::vector<std::int16_t> weights;
  std::vector<std::uint32_t> keep;  // prefilter survivors (row indices)
  std::vector<const float*> rerank_rows;  // the pool's fp32 embeddings
  std::vector<double> rerank_sims;        // ... and their exact scores
  std::vector<RankedCandidate> ranked;  // phase-2 output, best-first
};

// The work one scan did.
struct ScanWork {
  std::size_t rows_scanned = 0;       // snapshot rows scored
  std::size_t code_bytes = 0;         // i8 code bytes the column kernel read
  std::size_t rerank_candidates = 0;  // pool entries exact-reranked
};

// Phases 1+2 for one query: quantized scan of every snapshot row into
// scratch.sims, prefilter at tau_sim minus kQuantSimSlack, pool the best
// max(4*top_k, 32), exact-rerank the pool on the fp32 originals, sort
// (sim desc, id asc), truncate to top_k.  Result in scratch.ranked.  MUST
// run inside an EpochReadGuard with `snap` loaded (seq_cst) from the
// shard's snapshot pointer.  Takes no locks.
ScanWork SnapshotScanRank(const ShardSnapshot& snap,
                          std::span<const float> query,
                          ProbeScratch& scratch);

// Stage 2 over an exact-ranked candidate list (sorted best-first,
// already truncated to top_k): applies visibility (created_at <= now,
// not expired, tenant match) and the judger best-first short-circuit (or
// the ann-only ablation), and fills a LookupResult compatible with
// SemanticCache::CommitLookup.  `judger` may be null iff opt.use_judger
// is false.  Takes no locks; safe inside an epoch guard (the judger is
// pure).
SemanticCache::LookupResult SnapshotJudge(
    std::span<const RankedCandidate> ranked, const SineOptions& opt,
    Vector query_embedding, std::string_view query, double now,
    std::string_view tenant, const JudgerModel* judger);

// Writer half of one shard's probe state: the chunk spine, with the i8
// codes in it, and the records every published snapshot points into.  Not
// thread-safe: the engine calls it only under the shard's exclusive lock.
// Readers see nothing of it but what Sync exchanges into the published
// pointer.
//
// Lifetime (the limbo protocol): a record and the cache's SE node it
// borrows from are one resident unit.  When an entry leaves, both are
// unlinked together and parked in limbo — as are the chunks a write
// replaced and the header it superseded — stamped with current_epoch()
// read AFTER the seq_cst exchange (a pre-exchange stamp could read one
// epoch low and free state a straggler reader still scans).  They are
// freed once safe_epoch() passes the stamp.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(std::size_t dim);
  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;
  // Frees everything still parked; no reader may hold a snapshot any
  // more.  The header last exchanged into `published` is the caller's.
  ~SnapshotWriter();

  // Reconciles the ids in `changed` (the cache's change feed since the
  // last call; duplicates allowed) against `cache` and, when an entry
  // changed or the Sine thresholds moved, publishes a new header into
  // `published`.  `retired` is the cache's retire sink over the same
  // interval: a node that a published record borrows from parks in limbo
  // beside that record, and the rest are freed at once.  Cost is
  // O(changed) chunk copies plus the O(n/32) spine — never O(resident).
  // Clears `changed` and `retired`.
  void Sync(const SemanticCache& cache, std::vector<SeId>& changed,
            std::vector<SemanticCache::RetiredElement>& retired,
            std::atomic<const ShardSnapshot*>& published, EpochDomain& epoch);

  // Removed SEs parked in limbo, not yet freed.
  std::size_t retired_elements() const noexcept;

 private:
  struct Resident {
    std::unique_ptr<const ProbeRecord> record;
    std::uint32_t pos = 0;  // snapshot position
  };
  struct Retired {
    std::uint64_t epoch = 0;
    std::unique_ptr<const ProbeRecord> record{};
    SemanticCache::RetiredElement element{};
    std::unique_ptr<const SnapshotChunk> chunk{};
    std::unique_ptr<const ShardSnapshot> header{};
  };

  void Add(const SemanticElement& se);
  void Remove(std::unordered_map<SeId, Resident>::iterator it);
  // A fingerprint-only change: new record in the same slot, same codes.
  void Retag(Resident& r, const SemanticElement& se);
  // Chunk `c`, copied first if this Sync has not yet copied it (the
  // published original parks in limbo).
  SnapshotChunk& Mutable(std::size_t c);

  std::size_t dim_;
  std::vector<std::int8_t> row_;  // Add's quantized row, before the scatter
  std::unordered_map<SeId, Resident> resident_;
  std::vector<std::unique_ptr<SnapshotChunk>> chunks_;
  // Per chunk: copied during the current Sync (not yet published, so
  // still writable).
  std::vector<char> fresh_;
  std::size_t size_ = 0;
  std::vector<Retired> unlinked_;  // this Sync's garbage, not yet stamped
  std::deque<Retired> limbo_;      // stamped; epochs non-decreasing
};

}  // namespace cortex::serve
