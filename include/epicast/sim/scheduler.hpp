// epicast — the event queue at the heart of the discrete-event engine.
//
// A slab of pooled event records plus a 4-ary implicit heap of
// {time, tie-break sequence, slot} PODs. Three properties the rest of the
// library depends on:
//   * determinism — events at equal times fire in scheduling order
//     (FIFO tie-break), so a run is a pure function of config + seed;
//   * O(1) cancellation — an EventHandle addresses its slab record by
//     {index, generation}; cancelling bumps the generation, releases the
//     callback, and leaves a stale heap entry to be skipped on pop;
//   * allocation-free steady state — fired and cancelled records return to
//     a free list, heap sift operations move 24-byte PODs (never
//     callbacks), and closures up to SmallCallback::kInlineBytes are stored
//     inline in the slab.
#pragma once

#include <cstdint>
#include <vector>

#include "epicast/common/assert.hpp"
#include "epicast/sim/callback.hpp"
#include "epicast/sim/time.hpp"

namespace epicast {

class Scheduler;

/// Handle to a scheduled callback; allows cancellation. Default-constructed
/// handles refer to nothing and are safely cancellable no-ops. A handle
/// addresses its event by {slot, generation}: once the event fires or is
/// cancelled the generation is bumped, so every copy of the handle becomes
/// inert even if the slot is reused. Handles must not outlive the Scheduler
/// they came from.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevents the callback from running if it has not fired yet.
  /// Idempotent. Returns true if this call actually cancelled it.
  bool cancel();

  /// True if the callback is still scheduled to fire.
  [[nodiscard]] bool pending() const;

 private:
  friend class Scheduler;
  EventHandle(Scheduler* scheduler, std::uint32_t slot, std::uint64_t gen)
      : scheduler_(scheduler), generation_(gen), slot_(slot) {}

  Scheduler* scheduler_ = nullptr;
  std::uint64_t generation_ = 0;
  std::uint32_t slot_ = 0;
};

/// Priority queue of timestamped callbacks.
class Scheduler {
 public:
  using Callback = SmallCallback;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulation time: the timestamp of the event being executed, or
  /// of the last executed event when idle.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `cb` at absolute time `at`. Precondition: at >= now().
  EventHandle schedule_at(SimTime at, Callback cb);

  /// Schedules `cb` after `delay` from now. Precondition: delay >= 0.
  EventHandle schedule_after(Duration delay, Callback cb);

  // -- sharded-engine hooks (sim/shard_engine.hpp) ---------------------------
  // The conservative engine splits one scenario across several of these
  // heaps. Equal-time ordering must stay global, so all lanes draw their
  // tie-break sequences from one shared counter, and the engine pumps events
  // itself (peek/take_front) instead of through step().

  /// Draw tie-break sequences from `counter` instead of the internal one.
  /// Set once, before anything is scheduled.
  void use_external_seq(std::uint64_t* counter) {
    EPICAST_ASSERT(heap_.empty() && next_seq_ == 0);
    external_seq_ = counter;
  }

  /// Re-points the external tie-break counter. The threaded engine swaps in
  /// a per-lane provisional counter for the span of a parallel window (so
  /// workers never contend on the shared one) and swaps the shared counter
  /// back at the barrier. Only valid on a scheduler already in external-seq
  /// mode.
  void rebind_external_seq(std::uint64_t* counter) {
    EPICAST_ASSERT(external_seq_ != nullptr && counter != nullptr);
    external_seq_ = counter;
  }

  /// Rewrites every pending entry whose seq is >= `threshold` through `fn`
  /// (provisional seq -> final seq). `fn` must be strictly monotone over
  /// the seqs present in this heap — the heap's (at, seq) order is then
  /// unchanged and no re-sift is needed. Entries cancelled after creation
  /// are mapped too (their stale heap keys must stay well-ordered until
  /// lazily collected); their slots are untouched because live_seq no
  /// longer matches.
  template <typename Fn>
  void renumber_pending(std::uint64_t threshold, Fn&& fn) {
    for (HeapEntry& e : heap_) {
      if (e.seq < threshold) continue;
      const std::uint64_t renumbered = fn(e.seq);
      Slot& s = slots_[e.slot];
      if (s.live_seq == e.seq) s.live_seq = renumbered;
      e.seq = renumbered;
    }
  }

  /// Schedules `cb` with a caller-assigned tie-break sequence (mailbox
  /// drains re-inserting entries stamped at send time). `seq` must be unique
  /// across all heaps sharing the counter.
  EventHandle schedule_at_seq(SimTime at, std::uint64_t seq, Callback cb);

  /// Key of the earliest live entry (lazily discarding cancelled ones), or
  /// false when the heap is empty.
  bool peek(SimTime& at, std::uint64_t& seq);

  /// Pops the earliest live entry, advances now() to it, and returns its
  /// callback without invoking it. Precondition: peek() just returned true.
  Callback take_front();

  /// Runs the earliest pending event. Returns false when the queue is empty
  /// (cancelled entries are skipped transparently).
  bool step();

  /// Runs events until the queue is empty.
  void run();

  /// Runs events with timestamp <= deadline; afterwards now() == deadline
  /// even if the queue drained early.
  void run_until(SimTime deadline);

  /// Drops every pending callback without running it, releasing what the
  /// closures hold (messages still in flight at the end of a run); every
  /// handle becomes inert. executed() is unchanged.
  void discard_pending();

  /// Number of scheduled entries, including not-yet-collected cancellations.
  [[nodiscard]] std::size_t queued() const { return heap_.size(); }

  /// Total events executed so far (cancelled entries excluded).
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

 private:
  friend class EventHandle;

  /// 24-byte POD ordered by (at, seq); `slot` addresses the slab record.
  struct HeapEntry {
    SimTime at;
    std::uint64_t seq;  // FIFO tie-break for equal timestamps
    std::uint32_t slot;
  };

  /// Pooled event record. `live_seq` is the seq of the heap entry that owns
  /// this slot (kFreeSeq when none): a popped heap entry is live iff its seq
  /// still matches. `generation` is bumped on every fire/cancel, outdating
  /// all handles to the previous occupant.
  struct Slot {
    Callback cb;
    std::uint64_t live_seq = kFreeSeq;
    std::uint64_t generation = 0;
  };
  static constexpr std::uint64_t kFreeSeq = ~std::uint64_t{0};

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }
  void heap_push(HeapEntry e);
  void heap_pop_front();

  /// Shared tail of schedule_at / schedule_at_seq: slot + heap insertion.
  EventHandle insert_entry(SimTime at, std::uint64_t seq, Callback cb);

  [[nodiscard]] bool entry_live(const HeapEntry& e) const {
    return slots_[e.slot].live_seq == e.seq;
  }

  /// Bumps the generation, frees the slot, and returns its callback.
  Callback release_slot(std::uint32_t slot);

  /// EventHandle backends.
  bool cancel_slot(std::uint32_t slot, std::uint64_t gen);
  [[nodiscard]] bool slot_pending(std::uint32_t slot, std::uint64_t gen) const;

  std::vector<HeapEntry> heap_;  // 4-ary implicit min-heap
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  SimTime now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t* external_seq_ = nullptr;  // shared tie-break counter, if any
  std::uint64_t executed_ = 0;
};

}  // namespace epicast
