#include "epicast/sim/shard_engine.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "epicast/common/assert.hpp"

namespace epicast {

ShardEngine::ShardEngine(Simulator& sim, std::uint32_t nodes,
                         std::uint32_t shards, Duration lookahead,
                         std::uint32_t threads)
    : sim_(sim),
      nodes_(nodes),
      shards_(shards),
      block_((nodes + shards - 1) / shards),
      lookahead_(lookahead),
      threads_(std::min(threads == 0 ? 1u : threads, shards)),
      current_lane_(shards) {
  EPICAST_ASSERT(shards_ >= 1 && nodes_ >= shards_);
  EPICAST_ASSERT_MSG(lookahead_ > Duration::zero(),
                     "conservative engine needs positive lookahead");
  lanes_.reserve(lane_count());
  for (std::uint32_t i = 0; i < lane_count(); ++i) {
    lanes_.push_back(std::make_unique<Scheduler>());
    lanes_.back()->use_external_seq(&next_seq_);
  }
  mail_.resize(static_cast<std::size_t>(lane_count()) * lane_count());
  lw_.resize(lane_count());
  lane_profilers_.resize(shards_);
  for (std::uint32_t l = 0; l < lane_count(); ++l) lw_[l].ctx.lane = l;
  for (std::uint32_t l = 0; l < shards_; ++l) {
    lw_[l].ctx.profiler = &lane_profilers_[l];
  }
  if (threads_ > 1) {
    workers_.reserve(threads_);
    for (std::uint32_t w = 0; w < threads_; ++w) {
      workers_.emplace_back(&ShardEngine::worker_main, this, w);
    }
  }
}

ShardEngine::~ShardEngine() {
  if (!workers_.empty()) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_start_.notify_all();
    for (std::thread& t : workers_) t.join();
  }
}

Duration ShardEngine::compute_lookahead(Duration link_propagation,
                                        Duration direct_latency_min) {
  const Duration direct = direct_latency_min - Duration::nanos(1);
  return link_propagation < direct ? link_propagation : direct;
}

std::uint64_t ShardEngine::executed() const {
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) total += lane->executed();
  return total;
}

EventHandle ShardEngine::schedule_lane(std::uint32_t lane, SimTime at,
                                       Callback cb) {
  EPICAST_ASSERT(lane < lane_count());
  // A worker may only schedule onto the lane it is draining — anything
  // else would race the owning worker's heap.
  EPICAST_ASSERT(LaneContext::current() == nullptr ||
                 LaneContext::current()->lane == lane);
  EPICAST_ASSERT_MSG(at >= LaneContext::now_or(now_),
                     "cannot schedule into the past");
  return lanes_[lane]->schedule_at(at, std::move(cb));
}

MailRef ShardEngine::schedule_arrival(NodeId node, Duration delay,
                                      Callback cb) {
  EPICAST_ASSERT(!delay.is_negative());
  LaneContext* ctx = LaneContext::current();
  const std::uint32_t from_lane = ctx != nullptr ? ctx->lane : current_lane_;
  const SimTime at = (ctx != nullptr ? ctx->now : now_) + delay;
  // Conservative-sync safety: while a window is open, every arrival an
  // executing event produces must land at or beyond the window end, or the
  // lookahead bound fed to the constructor was wrong.
  EPICAST_ASSERT_MSG(!in_window_ || at >= window_end_,
                     "arrival inside the open lookahead window");
  const std::uint32_t to_lane = lane_of(node);
  const std::uint32_t pair = from_lane * lane_count() + to_lane;
  Mailbox& box = mail_[pair];
  LaneWindow& lw = lw_[from_lane];
  // Mailbox posts draw from the same counter as heap schedules (the lane's
  // provisional counter during parallel windows), preserving the creation
  // interleaving the serial engine would have produced.
  const std::uint64_t seq = ctx != nullptr ? lw.prov_next++ : next_seq_++;
  if (box.entries.empty()) lw.dirty.push_back(pair);
  box.entries.push_back(MailEntry{at, seq, std::move(cb), false});
  if (ctx != nullptr) {
    ++lw.posted;
    if (to_lane != from_lane) ++lw.crossed;
  } else {
    ++stats_.mailbox_posted;
    if (to_lane != from_lane) ++stats_.cross_posted;
  }
  return MailRef{pair, static_cast<std::uint32_t>(box.entries.size() - 1),
                 box.drain_epoch};
}

bool ShardEngine::cancel(const MailRef& ref) {
  // Cross-shard cancels (crash paths) only run from master-lane events,
  // which execute in serial windows.
  EPICAST_ASSERT(LaneContext::current() == nullptr);
  if (ref.pair == MailRef::kInvalid || ref.pair >= mail_.size()) return false;
  Mailbox& box = mail_[ref.pair];
  if (box.drain_epoch != ref.epoch) return false;  // already drained
  if (ref.index >= box.entries.size()) return false;
  MailEntry& entry = box.entries[ref.index];
  if (entry.cancelled) return false;
  entry.cancelled = true;
  entry.cb = nullptr;  // free captured state at cancel time, like the slab
  ++stats_.cancelled;
  return true;
}

void ShardEngine::drain_mailboxes() {
  // Only pairs made nonempty since the last drain are walked (each source
  // lane records its own dirty list, so posting stays lane-local under the
  // worker pool). Drain order across pairs is irrelevant for correctness:
  // entries carry the (at, seq) stamped at post time and the lane heaps
  // re-establish the global order. Fixed iteration (lane-major, post
  // order within a lane) keeps the walk itself deterministic.
  for (std::uint32_t l = 0; l < lane_count(); ++l) {
    LaneWindow& lw = lw_[l];
    if (lw.dirty.empty()) continue;
    for (const std::uint32_t pair : lw.dirty) {
      Mailbox& box = mail_[pair];
      const std::uint32_t to_lane = pair % lane_count();
      for (MailEntry& entry : box.entries) {
        if (entry.cancelled) continue;
        // Destination lane clocks trail the global clock, so the insert
        // precondition at >= lane.now() holds for every undrained entry.
        lanes_[to_lane]->schedule_at_seq(entry.at, entry.seq,
                                         std::move(entry.cb));
        ++stats_.drained;
      }
      box.entries.clear();
      ++box.drain_epoch;
    }
    lw.dirty.clear();
  }
}

bool ShardEngine::global_min(SimTime& at, std::uint64_t& seq,
                             std::uint32_t& lane) {
  bool found = false;
  for (std::uint32_t i = 0; i < lane_count(); ++i) {
    SimTime lane_at;
    std::uint64_t lane_seq;
    if (!lanes_[i]->peek(lane_at, lane_seq)) continue;
    if (!found || lane_at < at || (lane_at == at && lane_seq < seq)) {
      at = lane_at;
      seq = lane_seq;
      lane = i;
      found = true;
    }
  }
  return found;
}

bool ShardEngine::can_run_parallel(SimTime deadline) {
  if (threads_ <= 1) return false;
  SimTime at;
  std::uint64_t seq;
  // Master-lane events (topology mutations, faults, snapshots) serialize
  // the whole window — workers may read the state they mutate.
  if (lanes_[master_lane()]->peek(at, seq) && at < window_end_ &&
      at <= deadline) {
    return false;
  }
  std::uint32_t active = 0;
  for (std::uint32_t l = 0; l < shards_; ++l) {
    if (lanes_[l]->peek(at, seq) && at < window_end_ && at <= deadline) {
      if (++active >= 2) return true;
    }
  }
  return false;
}

void ShardEngine::run_until(SimTime deadline) {
  EPICAST_ASSERT(deadline >= now_);
  for (;;) {
    drain_mailboxes();
    SimTime at;
    std::uint64_t seq;
    std::uint32_t lane;
    if (!global_min(at, seq, lane)) break;
    if (at > deadline) break;
    // Open a window at the global minimum: idle gaps are jumped in one
    // step, so an empty-mailbox cyclic shard graph can never stall.
    window_end_ = at + lookahead_;
    in_window_ = true;
    ++stats_.windows;
    if (can_run_parallel(deadline)) {
      run_parallel_window(deadline);
    } else {
      // Serial window. The do-while reuses the (at, seq, lane) minimum the
      // window was opened with, so each event costs exactly one lane scan.
      std::uint64_t events = 0;
      do {
        now_ = at;
        current_lane_ = lane;
        // Lockstep the master simulator's clock so components reading
        // sim.now() (oracles, trackers, workload guards) see the executing
        // event's time. Its own heap must stay empty — every schedule goes
        // through the engine — or run_until would fire events out of order.
        EPICAST_ASSERT(sim_.scheduler().queued() == 0);
        sim_.run_until(at);
        Scheduler::Callback cb = lanes_[lane]->take_front();
        cb();
        ++events;
      } while (global_min(at, seq, lane) && at < window_end_ &&
               at <= deadline);
      stats_.window_events += events;
    }
    in_window_ = false;
  }
  now_ = deadline;
  EPICAST_ASSERT(sim_.scheduler().queued() == 0);
  sim_.run_until(deadline);
}

void ShardEngine::discard_pending() {
  EPICAST_ASSERT(!in_window_);
  drain_mailboxes();  // a no-op after run_until, which ends drained
  for (const auto& lane : lanes_) lane->discard_pending();
}

void ShardEngine::run_parallel_window(SimTime deadline) {
  ++stats_.parallel_windows;
  // Settle lazily-rebuilt shared read-only caches before workers start.
  if (prologue_) prologue_();
  work_deadline_ = deadline;
  for (std::uint32_t l = 0; l < shards_; ++l) {
    LaneWindow& lw = lw_[l];
    EPICAST_ASSERT(lw.execs.empty() && lw.ctx.effects.empty());
    lw.finals.clear();
    lw.prov_next = kProvBit | (static_cast<std::uint64_t>(l) << 40);
    lanes_[l]->rebind_external_seq(&lw.prov_next);
  }
  const auto wait_start = std::chrono::steady_clock::now();
  {
    std::unique_lock<std::mutex> lock(mu_);
    outstanding_ = threads_;
    ++work_epoch_;
    cv_start_.notify_all();
    cv_done_.wait(lock, [this]() { return outstanding_ == 0; });
  }
  stats_.barrier_wait_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wait_start)
          .count());
  for (std::uint32_t l = 0; l < shards_; ++l) {
    lanes_[l]->rebind_external_seq(&next_seq_);
  }
  merge_and_replay();
}

void ShardEngine::worker_main(std::uint32_t worker) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_start_.wait(lock,
                   [this, seen]() { return stop_ || work_epoch_ != seen; });
    if (stop_) return;
    seen = work_epoch_;
    lock.unlock();
    for (std::uint32_t l = worker; l < shards_; l += threads_) {
      run_lane_window(l);
    }
    lock.lock();
    if (--outstanding_ == 0) cv_done_.notify_one();
  }
}

void ShardEngine::run_lane_window(std::uint32_t lane) {
  LaneWindow& lw = lw_[lane];
  LaneContext::set_current(&lw.ctx);
  SimTime at;
  std::uint64_t seq;
  while (lanes_[lane]->peek(at, seq) && at < window_end_ &&
         at <= work_deadline_) {
    lw.ctx.now = at;
    const std::uint64_t created0 = lw.prov_next;
    const std::size_t fx0 = lw.ctx.effects.size();
    Callback cb = lanes_[lane]->take_front();
    cb();
    cb = nullptr;  // release captured state here, as the serial path does
    lw.execs.push_back(
        ExecRec{at, seq, static_cast<std::uint32_t>(lw.prov_next - created0),
                static_cast<std::uint32_t>(lw.ctx.effects.size() - fx0)});
  }
  LaneContext::set_current(nullptr);
}

std::uint64_t ShardEngine::resolve_seq(std::uint64_t seq) const {
  if (seq < kProvBit) return seq;
  const auto lane = static_cast<std::uint32_t>((seq >> 40) & 0x7FFFFF);
  const std::uint64_t idx = seq & kProvIdxMask;
  EPICAST_ASSERT(lane < shards_ && idx < lw_[lane].finals.size());
  return lw_[lane].finals[idx];
}

void ShardEngine::merge_and_replay() {
  // K-way merge of the per-lane event lists by (time, final seq): exactly
  // the order the serial engine would have executed them in. Walking it,
  // final seqs are assigned to each event's creations — reproducing the
  // serial shared-counter values — and the deferred side effects replay on
  // the master thread with the clock in lockstep.
  //
  // A head rec's provisional seq always resolves: its creator executed
  // earlier on the same lane (cross-lane creations travel via mailboxes and
  // land beyond the window), so the creator's rec — earlier in the lane
  // list — was already consumed and assigned the finals entry.
  std::uint64_t events = 0;
  for (;;) {
    std::uint32_t best = lane_count();
    SimTime best_at;
    std::uint64_t best_seq = 0;
    for (std::uint32_t l = 0; l < shards_; ++l) {
      const LaneWindow& lw = lw_[l];
      if (lw.merged >= lw.execs.size()) continue;
      const ExecRec& r = lw.execs[lw.merged];
      const std::uint64_t rseq = resolve_seq(r.seq);
      if (best == lane_count() || r.at < best_at ||
          (r.at == best_at && rseq < best_seq)) {
        best = l;
        best_at = r.at;
        best_seq = rseq;
      }
    }
    if (best == lane_count()) break;
    LaneWindow& lw = lw_[best];
    const ExecRec& r = lw.execs[lw.merged++];
    ++events;
    for (std::uint32_t i = 0; i < r.created; ++i) {
      lw.finals.push_back(next_seq_++);
    }
    if (r.effects > 0) {
      now_ = r.at;
      current_lane_ = best;
      EPICAST_ASSERT(sim_.scheduler().queued() == 0);
      sim_.run_until(r.at);
      for (std::uint32_t i = 0; i < r.effects; ++i) {
        Callback& fx = lw.ctx.effects[lw.fx_replayed++];
        fx();
        fx = nullptr;
      }
    }
  }
  stats_.window_events += events;
  // Every creation now has its final seq. Rewrite the provisional keys in
  // this window's mailbox posts and in the lane heaps (the map is strictly
  // monotone per heap, so heap order is untouched), then fold the lane
  // counters. next_seq_ ends exactly where the serial run's would.
  for (std::uint32_t l = 0; l < shards_; ++l) {
    LaneWindow& lw = lw_[l];
    for (const std::uint32_t pair : lw.dirty) {
      for (MailEntry& e : mail_[pair].entries) {
        if (e.seq >= kProvBit) e.seq = resolve_seq(e.seq);
      }
    }
    lanes_[l]->renumber_pending(
        kProvBit, [this](std::uint64_t s) { return resolve_seq(s); });
    EPICAST_ASSERT(lw.fx_replayed == lw.ctx.effects.size());
    lw.ctx.effects.clear();
    lw.execs.clear();
    lw.merged = 0;
    lw.fx_replayed = 0;
    stats_.mailbox_posted += lw.posted;
    stats_.cross_posted += lw.crossed;
    lw.posted = 0;
    lw.crossed = 0;
  }
}

}  // namespace epicast
