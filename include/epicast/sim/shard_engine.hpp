// epicast — sharded conservative discrete-event engine.
//
// Partitions one scenario's nodes into K shards, each a logical process
// with its own 4-ary slab heap (a lane), plus one master lane for
// scenario-level events (workload publishes, fault plans, snapshots).
// Cross-shard traffic — transport arrivals — travels through per-pair
// mailboxes stamped with the delivery time, and lanes only advance inside
// bounded lookahead windows, the classic conservative (bounded-lag /
// time-window) synchronization scheme.
//
// The lookahead L comes from the link model: every overlay hop costs at
// least the propagation delay and every direct-channel message at least
// direct_latency_min, so an event executing at time t can only produce
// arrivals at >= t + L. Within a window [w, w+L) every lane's pending
// events are causally independent of the other lanes' (their arrivals land
// at or beyond w+L), which admits two execution strategies with identical
// results:
//
//  * serial windows (threads == 1, or windows a master-lane event or a
//    single busy lane makes not worth parallelising): the engine executes
//    the globally minimal (time, seq) event across all lanes, all lanes
//    drawing tie-break seqs from ONE shared counter — exactly the serial
//    scheduler's order.
//
//  * parallel windows (threads > 1): a persistent worker pool drains each
//    shard lane's strictly-below-window-end prefix concurrently. Per-lane
//    state makes this race-free (lane heaps, per-sender RNG streams,
//    per-lane profilers and mailbox rows); side effects whose order the
//    serial engine defines globally — observer callbacks, tracker updates
//    — are buffered per lane (sim/lane_context.hpp) and replayed at the
//    window barrier in merged global (time, seq) order on the master
//    thread. Tie-break seqs are drawn from per-lane provisional counters
//    and renumbered at the barrier to the exact values the shared counter
//    would have produced, so heap order, mailbox order, and the next
//    window's draws all match the serial run bit-for-bit.
//
// Either way results are bit-identical to the serial scheduler by
// construction, for every seed, shard count, and thread count. The
// equivalence tier (tests/parallel) proves it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "epicast/common/ids.hpp"
#include "epicast/metrics/hotpath_profiler.hpp"
#include "epicast/sim/lane_context.hpp"
#include "epicast/sim/scheduler.hpp"
#include "epicast/sim/simulator.hpp"
#include "epicast/sim/time.hpp"

namespace epicast {

/// Handle to a not-yet-drained mailbox entry; allows cross-shard
/// cancellation. Cancelling after the barrier drain has moved the entry
/// into the destination lane's heap is a no-op (returns false) — cancel
/// the lane EventHandle instead for post-drain control.
struct MailRef {
  static constexpr std::uint32_t kInvalid = ~std::uint32_t{0};
  std::uint32_t pair = kInvalid;  ///< mailbox index (from_lane, to_lane)
  std::uint32_t index = 0;        ///< entry index within the mailbox
  std::uint64_t epoch = 0;        ///< drain epoch the entry belongs to
};

class ShardEngine {
 public:
  using Callback = Scheduler::Callback;

  struct Stats {
    std::uint64_t windows = 0;           ///< lookahead windows opened
    std::uint64_t parallel_windows = 0;  ///< ... executed on the worker pool
    std::uint64_t window_events = 0;     ///< events executed inside windows
    std::uint64_t mailbox_posted = 0;    ///< arrivals routed through mailboxes
    std::uint64_t cross_posted = 0;      ///< ... of which crossed a shard
    std::uint64_t drained = 0;           ///< entries moved into lane heaps
    std::uint64_t cancelled = 0;         ///< entries cancelled pre-drain
    /// Master wall-clock nanoseconds spent waiting on the window barrier
    /// (includes the workers' execution time — the master only coordinates).
    std::uint64_t barrier_wait_ns = 0;
  };

  /// `sim` is the master simulator: its clock is advanced in lockstep with
  /// the engine (so components reading sim.now() see the executing event's
  /// time) but its own heap must stay empty — all scheduling goes through
  /// the engine. `lookahead` must be positive; use compute_lookahead().
  /// `threads` > 1 starts a persistent worker pool executing parallel
  /// windows; it is clamped to the shard count (the unit of parallelism).
  ShardEngine(Simulator& sim, std::uint32_t nodes, std::uint32_t shards,
              Duration lookahead, std::uint32_t threads = 1);
  ~ShardEngine();

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  /// Largest window the link model allows: an event at t can only cause
  /// arrivals at >= t + min(overlay propagation, direct latency minimum).
  /// The direct bound backs off 1ns because the uniform latency draw is
  /// rounded to the nearest nanosecond, which may land half a nanosecond
  /// below the configured minimum. Non-positive result means the model
  /// gives no lookahead and the caller must fall back to the serial path.
  static Duration compute_lookahead(Duration link_propagation,
                                    Duration direct_latency_min);

  [[nodiscard]] std::uint32_t shard_count() const { return shards_; }
  [[nodiscard]] std::uint32_t thread_count() const { return threads_; }
  [[nodiscard]] std::uint32_t master_lane() const { return shards_; }
  [[nodiscard]] std::uint32_t lane_of(NodeId node) const {
    EPICAST_ASSERT(node.value() < nodes_);
    return static_cast<std::uint32_t>(node.value()) / block_;
  }

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] Duration lookahead() const { return lookahead_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// The shard lane's private profiler (lane < shard_count()). Components
  /// living on a shard lane charge this one — from a worker thread during
  /// parallel windows, from the master otherwise — and the scenario runner
  /// merges all lane snapshots into the run totals.
  [[nodiscard]] HotpathProfiler& lane_profiler(std::uint32_t lane) {
    EPICAST_ASSERT(lane < shards_);
    return lane_profilers_[lane];
  }

  /// Hook run on the master thread right before each parallel window's
  /// workers start — the place to settle lazily-rebuilt shared caches that
  /// workers may only read (the topology's CSR adjacency pack).
  void set_parallel_prologue(std::function<void()> hook) {
    prologue_ = std::move(hook);
  }

  /// Total events executed across all lanes (matches the serial
  /// scheduler's executed() count for the same scenario).
  [[nodiscard]] std::uint64_t executed() const;

  /// Schedules onto an explicit lane's heap (timers, shard-local work).
  /// From a worker, only the worker's own lane is schedulable.
  EventHandle schedule_lane(std::uint32_t lane, SimTime at, Callback cb);

  /// Schedules onto the owning shard of `node`.
  EventHandle schedule_node_at(NodeId node, SimTime at, Callback cb) {
    return schedule_lane(lane_of(node), at, std::move(cb));
  }

  /// Schedules scenario-level work on the master lane.
  EventHandle schedule_master_at(SimTime at, Callback cb) {
    return schedule_lane(master_lane(), at, std::move(cb));
  }

  /// Routes a transport arrival for `node` through the mailbox grid.
  /// Stamped (now + delay, seq) at post time; inserted into the owning
  /// lane's heap at the next window barrier. While a window is open this
  /// asserts the conservative invariant delay >= lookahead.
  MailRef schedule_arrival(NodeId node, Duration delay, Callback cb);

  /// Cancels a mailbox entry that has not been drained yet. Returns true
  /// iff this call removed it. Master thread only (crash paths run in
  /// serial windows).
  bool cancel(const MailRef& ref);

  /// Runs windows until no event at or before `deadline` remains;
  /// afterwards now() == deadline on the engine and the master simulator.
  void run_until(SimTime deadline);

  /// Scheduler::discard_pending() for every lane heap and mailbox: the end
  /// of a run drops what is still queued. Master thread, between windows.
  void discard_pending();

 private:
  struct MailEntry {
    SimTime at;
    std::uint64_t seq;
    Callback cb;
    bool cancelled = false;
  };
  struct Mailbox {
    std::vector<MailEntry> entries;
    std::uint64_t drain_epoch = 0;
  };

  /// One executed worker event, in lane order: enough to replay the
  /// window's global interleaving at the barrier without re-running it.
  struct ExecRec {
    SimTime at;
    std::uint64_t seq;      ///< pre-execution key (may be provisional)
    std::uint32_t created;  ///< seq draws during execution (heap + mailbox)
    std::uint32_t effects;  ///< deferred callbacks appended by this event
  };

  /// Per-lane window state. Shard lanes use all of it; the master lane's
  /// entry only carries the dirty-pair list and post counters.
  struct LaneWindow {
    LaneContext ctx;
    std::vector<ExecRec> execs;
    /// finals[i] = the exact shared-counter seq of this lane's i-th
    /// in-window creation, assigned in merged replay order.
    std::vector<std::uint64_t> finals;
    std::uint64_t prov_next = 0;  ///< per-window provisional seq counter
    std::size_t merged = 0;       ///< execs consumed by the merge so far
    std::size_t fx_replayed = 0;  ///< effects consumed by the replay so far
    std::uint64_t posted = 0;     ///< mailbox posts (folded into stats_)
    std::uint64_t crossed = 0;
    /// Pair indices this lane made nonempty since the last drain — the
    /// drain and the barrier renumber walk only these.
    std::vector<std::uint32_t> dirty;
  };

  /// Provisional seq encoding: bit 63 set, creating lane in bits 40..62,
  /// per-lane creation index in bits 0..39. All provisional seqs order
  /// after every real seq, and within a lane in creation order — the two
  /// properties lane-local heap ordering needs before the renumber.
  static constexpr std::uint64_t kProvBit = std::uint64_t{1} << 63;
  static constexpr std::uint64_t kProvIdxMask = (std::uint64_t{1} << 40) - 1;

  [[nodiscard]] std::uint32_t lane_count() const { return shards_ + 1; }
  [[nodiscard]] Mailbox& mailbox(std::uint32_t from, std::uint32_t to) {
    return mail_[from * lane_count() + to];
  }
  void drain_mailboxes();
  /// Earliest live (at, seq) across every lane heap; false when all empty.
  bool global_min(SimTime& at, std::uint64_t& seq, std::uint32_t& lane);

  /// True when the open window [now, window_end_) has no master-lane event
  /// and at least two shard lanes with work — the only shape where the
  /// worker pool beats the serial scan.
  bool can_run_parallel(SimTime deadline);
  void run_parallel_window(SimTime deadline);
  /// Replays the window's per-lane event lists in merged global (time,
  /// seq) order: assigns final seqs, runs deferred effects with the master
  /// clock in lockstep, then renumbers provisional seqs in mailboxes and
  /// lane heaps.
  void merge_and_replay();
  /// Final seq of a (possibly provisional) pre-execution key.
  [[nodiscard]] std::uint64_t resolve_seq(std::uint64_t seq) const;
  void worker_main(std::uint32_t worker);
  void run_lane_window(std::uint32_t lane);

  Simulator& sim_;
  std::uint32_t nodes_;
  std::uint32_t shards_;
  std::uint32_t block_;  // nodes per shard (ceil)
  Duration lookahead_;
  std::uint32_t threads_;  // 1 = no pool, pure serial windows
  std::vector<std::unique_ptr<Scheduler>> lanes_;  // [0..K) shards, [K] master
  std::vector<Mailbox> mail_;                      // (K+1)² pair grid
  std::vector<LaneWindow> lw_;                     // per-lane window state
  std::vector<HotpathProfiler> lane_profilers_;    // [0..K) shard lanes
  std::uint64_t next_seq_ = 0;  // shared tie-break counter for all lanes
  SimTime now_;
  std::uint32_t current_lane_;  // lane of the executing event (posts charge it)
  bool in_window_ = false;
  SimTime window_end_;
  SimTime work_deadline_;  // run_until deadline, visible to workers
  Stats stats_;
  std::function<void()> prologue_;

  // Worker pool: workers sleep between windows; the master publishes a
  // window by bumping work_epoch_ under mu_ and waits for outstanding_ to
  // hit zero. Lane l is always drained by worker l % threads_, so a lane's
  // heap and window state stay single-writer across windows.
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t work_epoch_ = 0;
  std::uint32_t outstanding_ = 0;
  bool stop_ = false;
};

}  // namespace epicast
