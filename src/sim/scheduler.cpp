#include "epicast/sim/scheduler.hpp"

#include <algorithm>
#include <utility>

#include "epicast/common/assert.hpp"

namespace epicast {

bool EventHandle::cancel() {
  if (scheduler_ == nullptr) return false;
  return scheduler_->cancel_slot(slot_, generation_);
}

bool EventHandle::pending() const {
  if (scheduler_ == nullptr) return false;
  return scheduler_->slot_pending(slot_, generation_);
}

EventHandle Scheduler::schedule_at(SimTime at, Callback cb) {
  EPICAST_ASSERT_MSG(at >= now_, "cannot schedule into the past");
  EPICAST_ASSERT(static_cast<bool>(cb));
  const std::uint64_t seq = next_seq_++;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  s.live_seq = seq;
  heap_push(HeapEntry{at, seq, slot});
  return EventHandle{this, slot, s.generation};
}

EventHandle Scheduler::schedule_after(Duration delay, Callback cb) {
  EPICAST_ASSERT_MSG(!delay.is_negative(), "negative delay");
  return schedule_at(now_ + delay, std::move(cb));
}

bool Scheduler::peek(SimTime& at, std::uint64_t& seq) {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    if (!entry_live(top)) {
      heap_pop_front();  // cancelled; collect lazily
      continue;
    }
    at = top.at;
    seq = top.seq;
    return true;
  }
  return false;
}

void Scheduler::heap_push(HeapEntry e) {
  heap_.push_back(e);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void Scheduler::heap_pop_front() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + 4, n);
    std::size_t best = i;
    for (std::size_t c = first; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (best == i) break;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

Scheduler::Callback Scheduler::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  Callback cb = std::move(s.cb);
  s.cb = nullptr;
  s.live_seq = kFreeSeq;
  ++s.generation;  // every handle to the old occupant is now inert
  free_slots_.push_back(slot);
  return cb;
}

bool Scheduler::cancel_slot(std::uint32_t slot, std::uint64_t gen) {
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  if (s.generation != gen || s.live_seq == kFreeSeq) return false;
  // Drop the callback eagerly so captured state is freed at cancel time;
  // the heap entry goes stale and is skipped when it reaches the front.
  release_slot(slot);
  return true;
}

bool Scheduler::slot_pending(std::uint32_t slot, std::uint64_t gen) const {
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  return s.generation == gen && s.live_seq != kFreeSeq;
}

bool Scheduler::step() {
  while (!heap_.empty()) {
    const HeapEntry top = heap_.front();
    heap_pop_front();
    if (!entry_live(top)) continue;  // cancelled; collect lazily
    now_ = top.at;
    // Free the slot before invoking: pending() must be false inside the
    // callback, and the callback may reschedule into the same slot.
    Callback cb = release_slot(top.slot);
    ++executed_;
    cb();
    return true;
  }
  return false;
}

void Scheduler::discard_pending() {
  // Detach the heap first: a dying closure may schedule or cancel on this
  // scheduler, and the walk must not see the heap change under it.
  const std::vector<HeapEntry> pending = std::move(heap_);
  heap_.clear();
  for (const HeapEntry& e : pending) {
    if (entry_live(e)) release_slot(e.slot);  // the callback dies here
  }
}

void Scheduler::run() {
  while (step()) {
  }
}

void Scheduler::run_until(SimTime deadline) {
  EPICAST_ASSERT(deadline >= now_);
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    if (!entry_live(top)) {
      heap_pop_front();
      continue;
    }
    if (top.at > deadline) break;
    step();
  }
  now_ = deadline;
}

}  // namespace epicast
