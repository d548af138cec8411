// Ranked mutexes: deadlock prevention by construction.  Every mutex in
// the serving tier carries a LockRank, and a thread may only acquire a
// mutex whose rank is STRICTLY GREATER than every rank it already holds
// (so same-rank reacquisition — e.g. two shard mutexes at once — is also
// an inversion).  A per-thread stack of held ranks is maintained and a
// violation aborts via CHECK with both lock names in the message.
//
// The checker is debug-only by default (on when NDEBUG is not defined);
// release builds pay one relaxed atomic load per lock/unlock.  Tests
// force it on at runtime with SetLockOrderChecksForTesting(true) so the
// inversion death-test works in every build type.
//
// The lock-rank table for the serving tier lives in DESIGN.md §7.
#pragma once

#include <atomic>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "util/check.h"
#include "util/thread_annotations.h"

namespace cortex {

// Ranks are spaced out so future locks can slot in between.  Acquisition
// must follow strictly increasing rank; shard mutexes are leaves.
enum class LockRank : int {
  // Cluster-router locks rank below the node-side serving tier: a router
  // worker only ever holds router locks (node calls go over sockets), so
  // the two tables never interleave on one thread, but keeping the ranks
  // disjoint makes in-process cluster tests checkable too.
  kRouterQueue = 4,         // ClusterRouter acceptor->worker conn queue
  kRouterState = 6,         // ClusterRouter ring + migration-window state
  kRouterNodePool = 8,      // NodePool per-node idle-connection stacks
  kServerQueue = 10,        // CortexServer acceptor->worker conn queue
  kServerBucket = 20,       // CortexServer admission token bucket
  kEngineGroundTruth = 30,  // ConcurrentShardedEngine fetch_gt_
  kEngineHousekeeping = 40, // ConcurrentShardedEngine hk wakeup lock
  kEngineShard = 50,        // per-shard cache mutex (leaf)
  kTenantRegistry = 60,     // TenantRegistry quota/metric state (below
                            //   kLeaf so metric lookups stay legal)
  kEpochRetire = 70,        // EpochDomain retire-list mutex: above the
                            //   shard leaf so writers holding shard.mu
                            //   may retire garbage into the domain
  kLeaf = 1000,             // generic leaf for code outside the table
  // Pseudo-rank pushed by EpochReadGuard for the duration of an epoch
  // critical section.  It is ABOVE every real rank, so acquiring any
  // ranked mutex inside an epoch section is an inversion and aborts —
  // epoch sections must stay lock-free or reclamation can stall on a
  // blocked reader.  No mutex may be constructed with this rank.
  kEpochCritical = 2000,
};

namespace lock_order_internal {

// Defined in ranked_mutex.cc so the on/off default (from NDEBUG) is a
// single program-wide definition, not a per-TU inline initializer.
bool ChecksEnabled() noexcept;

struct HeldLock {
  int rank;
  const char* name;
};

inline thread_local std::vector<HeldLock> t_held_locks;

inline void OnAcquire(int rank, const char* name) {
  if (!ChecksEnabled()) return;
  if (!t_held_locks.empty()) {
    const HeldLock& top = t_held_locks.back();
    CHECK(top.rank < rank)
        << "lock-order inversion: acquiring '" << name << "' (rank " << rank
        << ") while holding '" << top.name << "' (rank " << top.rank
        << "); ranks must be strictly increasing (DESIGN.md §7)";
  }
  t_held_locks.push_back({rank, name});
}

inline void OnRelease(int rank) {
  if (!ChecksEnabled()) return;
  // Release in any order: drop the innermost held entry with this rank.
  for (auto it = t_held_locks.rbegin(); it != t_held_locks.rend(); ++it) {
    if (it->rank == rank) {
      t_held_locks.erase(std::next(it).base());
      return;
    }
  }
  CHECK(false) << "releasing rank " << rank
               << " which this thread does not hold";
}

}  // namespace lock_order_internal

// Force the checker on (or off) regardless of build type.  Only for
// tests; not thread-safe against concurrent lock activity, so call it
// before spawning threads.
void SetLockOrderChecksForTesting(bool enabled) noexcept;

class CAPABILITY("mutex") RankedMutex {
 public:
  explicit RankedMutex(LockRank rank, const char* name = "RankedMutex")
      : rank_(static_cast<int>(rank)), name_(name) {}

  RankedMutex(const RankedMutex&) = delete;
  RankedMutex& operator=(const RankedMutex&) = delete;

  void lock() ACQUIRE() {
    lock_order_internal::OnAcquire(rank_, name_);
    mu_.lock();
  }
  bool try_lock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    lock_order_internal::OnAcquire(rank_, name_);
    return true;
  }
  void unlock() RELEASE() {
    // Pop the rank first: if this thread does not actually hold the lock
    // the checker aborts before the (undefined) underlying unlock.
    lock_order_internal::OnRelease(rank_);
    mu_.unlock();
  }

  int rank() const noexcept { return rank_; }
  const char* name() const noexcept { return name_; }

 private:
  std::mutex mu_;
  const int rank_;
  const char* const name_;
};

class CAPABILITY("shared_mutex") RankedSharedMutex {
 public:
  explicit RankedSharedMutex(LockRank rank,
                             const char* name = "RankedSharedMutex")
      : rank_(static_cast<int>(rank)), name_(name) {}

  RankedSharedMutex(const RankedSharedMutex&) = delete;
  RankedSharedMutex& operator=(const RankedSharedMutex&) = delete;

  void lock() ACQUIRE() {
    lock_order_internal::OnAcquire(rank_, name_);
    mu_.lock();
  }
  void unlock() RELEASE() {
    lock_order_internal::OnRelease(rank_);
    mu_.unlock();
  }
  void lock_shared() ACQUIRE_SHARED() {
    lock_order_internal::OnAcquire(rank_, name_);
    mu_.lock_shared();
  }
  void unlock_shared() RELEASE_SHARED() {
    lock_order_internal::OnRelease(rank_);
    mu_.unlock_shared();
  }

  int rank() const noexcept { return rank_; }
  const char* name() const noexcept { return name_; }

 private:
  std::shared_mutex mu_;
  const int rank_;
  const char* const name_;
};

// RAII guards.  These (not std::lock_guard/std::unique_lock) are the
// idiom for ranked mutexes: SCOPED_CAPABILITY lets clang's analysis see
// the acquire/release pair, which std:: wrappers are opaque to.

class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(RankedMutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  RankedMutex& mu_;
};

class SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(RankedSharedMutex& mu) ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~WriterLock() RELEASE() { mu_.unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  RankedSharedMutex& mu_;
};

class SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(RankedSharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~ReaderLock() RELEASE() { mu_.unlock_shared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  RankedSharedMutex& mu_;
};

}  // namespace cortex
