// Epoch-based reclamation (EBR): lock-free read sections with deferred
// frees — the generalization of the PR 3 seqlock flight-recorder idiom
// into a reusable primitive (DESIGN.md §13).
//
// The shape is the classic three-epoch scheme:
//
//   * readers wrap each access to epoch-protected state in an
//     EpochReadGuard, which stamps a per-thread slot with the global
//     epoch on entry and clears it on exit — no lock, no RMW on a
//     shared line, just one seq_cst store each way;
//   * writers unlink state (e.g. swap an atomic snapshot pointer), then
//     Retire() a destructor callback, stamped with the current epoch;
//   * a housekeeping thread calls Flush(): the global epoch advances
//     only when every active reader slot carries the current epoch, so
//     once the epoch has advanced twice past a retired item no reader
//     can still hold a reference and the callback runs.
//
// Memory ordering (TSan-checked by tests/test_epoch.cc): the reader's
// guard-exit release-store of 0 (or a later seq_cst re-entry store)
// synchronizes-with the flusher's seq_cst slot scan, so every access
// inside the critical section happens-before the deferred free.  No
// std::atomic_thread_fence — TSan does not model fences.
//
// Contract for protected pointers: writers must unlink with a seq_cst
// store/exchange and readers must load the pointer with seq_cst, inside
// the guard.  The grace-period proof runs in the seq_cst total order: a
// reader whose slot was stamped at epoch e+1 before the writer's unlink
// is guaranteed to observe the NEW pointer, so only readers stamped <= e
// can hold state retired at e — and those block the second advance.  An
// acquire-only load could legally return the stale pointer and break
// reclamation.
//
// Lock discipline: EpochReadGuard pushes LockRank::kEpochCritical (the
// highest pseudo-rank) onto the per-thread held-lock stack, so acquiring
// ANY ranked mutex inside an epoch section aborts in checked builds and
// is flagged by cortex_analyzer.  Retire()/Flush() take the domain's
// internal kEpochRetire (70) mutex and are therefore themselves illegal
// inside a read section, but legal while holding a shard lock (50).
//
// Thread slots: a thread claims one slot per domain on its first guard
// and keeps it for the domain's lifetime (slots of exited threads stay
// claimed but quiescent, so they never stall reclamation).  A domain
// supports kMaxSlots distinct reader threads over its whole lifetime;
// exceeding that CHECK-aborts with a clear message.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/ranked_mutex.h"
#include "util/thread_annotations.h"

namespace cortex {

class EpochDomain {
 public:
  // Distinct reader threads a domain can ever see (claims are permanent).
  static constexpr std::size_t kMaxSlots = 512;

  EpochDomain();
  // Requires quiescence: CHECK-aborts if any reader is still inside a
  // critical section.  Pending retire callbacks run immediately (no
  // grace period needed once no reader can exist).
  ~EpochDomain();

  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

  // Defers `fn` until two epoch advances from now.  Call AFTER the
  // retired state is unreachable for new readers (pointer swapped out).
  // Legal while holding a shard lock (rank < 70); illegal inside an
  // epoch read section (rank check aborts).
  void Retire(std::function<void()> fn);

  // Tries to advance the epoch (possible when every active reader slot
  // carries the current epoch), then runs every callback whose grace
  // period has elapsed.  Callbacks run with no internal lock held, so
  // they may Retire() again or take locks.  Returns callbacks run.
  std::size_t Flush();

  // Flushes until no retired item remains, yielding between rounds.
  // CHECK-aborts after ~30s — a reader parked inside a critical section
  // that long is a bug, not a wait.
  void DrainBlocking();

  // seq_cst, not acquire: limbo-list users stamp unlink epochs with this
  // value right after a seq_cst unlink (see the pointer contract above),
  // and the stamp must not read older than the epoch at the unlink's
  // position in the seq_cst total order — an earlier value would shave
  // one epoch off the grace period.
  std::uint64_t current_epoch() const noexcept {
    return epoch_.load(std::memory_order_seq_cst);
  }
  // Items retired at epoch <= safe_epoch() are past their grace period:
  // no reader can still hold a reference.  For callers that keep their
  // own limbo lists (e.g. SnapshotWriter's) instead of Retire callbacks.
  std::uint64_t safe_epoch() const noexcept {
    const std::uint64_t e = current_epoch();
    return e >= 2 ? e - 2 : 0;
  }
  // Retired items whose callbacks have not yet run (tests/metrics).
  std::size_t pending_retired() const;

 private:
  friend class EpochReadGuard;

  struct alignas(64) Slot {
    // 0 = quiescent; otherwise the epoch the reader entered at.
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<bool> claimed{false};
  };

  struct RetiredItem {
    std::uint64_t epoch = 0;
    std::function<void()> fn;
  };

  // The slot this thread owns in this domain, claiming one on first use.
  std::size_t SlotForThisThread();
  bool AllSlotsQuiescentOrAt(std::uint64_t epoch) const noexcept;

  // Identifies this domain instance across address reuse: a destroyed
  // domain's address may be recycled, and per-thread slot caches key on
  // (address, serial) so a stale cache entry can never alias a new
  // domain.
  const std::uint64_t serial_;
  // Starts at 1 so a slot value of 0 always means quiescent.
  std::atomic<std::uint64_t> epoch_{1};
  Slot slots_[kMaxSlots];  // per-slot atomics // cortex-analyzer: allow(guarded-by)

  mutable RankedMutex retire_mu_{LockRank::kEpochRetire, "epoch.retire_mu"};
  std::vector<RetiredItem> retired_ GUARDED_BY(retire_mu_);
};

// RAII epoch critical section.  Nesting on the same domain CHECK-aborts
// (the slot holds one epoch); nesting across distinct domains is fine.
class EpochReadGuard {
 public:
  explicit EpochReadGuard(EpochDomain& domain);
  ~EpochReadGuard();

  EpochReadGuard(const EpochReadGuard&) = delete;
  EpochReadGuard& operator=(const EpochReadGuard&) = delete;

 private:
  EpochDomain& domain_;
  std::size_t slot_;
};

}  // namespace cortex
