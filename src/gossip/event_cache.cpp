#include "epicast/gossip/event_cache.hpp"

#include <algorithm>

#include "epicast/common/assert.hpp"

namespace epicast {

void EventCache::PatternIds::pop_front() {
  if (++head * 2 >= ids.size()) {
    ids.erase(ids.begin(), ids.begin() + head);
    head = 0;
  }
}

EventCache::EventCache(std::size_t capacity, CachePolicy policy, Rng rng)
    : capacity_(capacity), policy_(policy), rng_(rng) {
  EPICAST_ASSERT_MSG(capacity > 0, "cache capacity must be positive");
  // The cache runs at exactly `capacity` entries in steady state; reserving
  // the slot vector up front keeps the insert-evict churn reallocation-free.
  // The indexes grow with content instead (see the header).
  nodes_.reserve(capacity);
  if (policy == CachePolicy::Random) {
    random_pool_.reserve(capacity);
    random_pos_.reserve(capacity);
  }
}

void EventCache::link_back(std::uint32_t slot) {
  Node& n = nodes_[slot];
  n.prev = tail_;
  n.next = kNil;
  if (tail_ != kNil) {
    nodes_[tail_].next = slot;
  } else {
    head_ = slot;
  }
  tail_ = slot;
}

void EventCache::unlink(std::uint32_t slot) {
  Node& n = nodes_[slot];
  if (n.prev != kNil) {
    nodes_[n.prev].next = n.next;
  } else {
    head_ = n.next;
  }
  if (n.next != kNil) {
    nodes_[n.next].prev = n.prev;
  } else {
    tail_ = n.prev;
  }
}

bool EventCache::insert(const EventPtr& event) {
  EPICAST_ASSERT(event != nullptr);
  HotpathProfiler::MaybeScope scope(profiler_, HotPhase::CacheOp);
  if (by_id_.contains(event->id())) return false;
  while (by_id_.size() >= capacity_) evict_one();

  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[slot].event = event;
  link_back(slot);
  by_id_.try_emplace(event->id(), slot);
  if (policy_ == CachePolicy::Random) {
    if (slot >= random_pos_.size()) random_pos_.resize(slot + 1);
    random_pos_[slot] = static_cast<std::uint32_t>(random_pool_.size());
    random_pool_.push_back(slot);
  }
  index_patterns(slot);
  ++stats_.insertions;
  return true;
}

void EventCache::keep_pattern_index() {
  EPICAST_ASSERT_MSG(stats_.insertions == 0,
                     "the pattern index must be kept from the first insert");
  pattern_index_ = true;
}

void EventCache::index_stream_seqs(std::uint32_t slot) {
  const EventData& event = *nodes_[slot].event;
  for (const PatternSeq& ps : event.patterns()) {
    by_stream_seq_[LostEntryInfo{event.source(), ps.pattern, ps.seq}] = slot;
  }
}

void EventCache::index_patterns(std::uint32_t slot) {
  if (stream_seq_index_) index_stream_seqs(slot);
  if (!pattern_index_) return;
  const EventData& event = *nodes_[slot].event;
  for (const PatternSeq& ps : event.patterns()) {
    by_pattern_[ps.pattern].ids.push_back(event.id());
  }
}

void EventCache::unindex_patterns(const EventData& event) {
  if (stream_seq_index_) {
    for (const PatternSeq& ps : event.patterns()) {
      by_stream_seq_.erase(LostEntryInfo{event.source(), ps.pattern, ps.seq});
    }
  }
  if (!pattern_index_) return;
  // Precondition (see drop()): the event is already out of by_id_, so its
  // ids count as stale below.
  for (const PatternSeq& ps : event.patterns()) {
    // Eager head purge: under FIFO eviction the victim sits at the front
    // of its pattern queues, so the index cannot grow unboundedly at small
    // β. Stale ids in the middle (LRU/random) fall to ids_matching()'s
    // lazy purge.
    PatternIds* bucket = by_pattern_.find(ps.pattern);
    if (bucket == nullptr) continue;
    while (!bucket->empty() && !by_id_.contains(bucket->front())) {
      bucket->pop_front();
    }
    if (bucket->empty()) by_pattern_.erase(ps.pattern);
  }
}

void EventCache::evict_one() {
  EPICAST_ASSERT(head_ != kNil);
  // FIFO and LRU evict the head.
  const std::uint32_t victim =
      policy_ == CachePolicy::Random
          ? random_pool_[rng_.next_below(random_pool_.size())]
          : head_;
  drop(victim);
  ++stats_.evictions;
}

void EventCache::drop(std::uint32_t slot) {
  // Remove from by_id_ before unindexing so the eager purge sees the
  // victim's own ids as stale.
  const EventPtr victim = std::move(nodes_[slot].event);
  unlink(slot);
  free_.push_back(slot);
  by_id_.erase(victim->id());
  unindex_patterns(*victim);
  if (policy_ == CachePolicy::Random) {
    // Swap-pop keeps the sampling pool dense.
    const std::uint32_t pos = random_pos_[slot];
    const std::uint32_t last = random_pool_.back();
    random_pool_[pos] = last;
    random_pos_[last] = pos;
    random_pool_.pop_back();
  }
}

void EventCache::clear() {
  nodes_.clear();
  free_.clear();
  head_ = kNil;
  tail_ = kNil;
  by_id_.clear();
  by_stream_seq_.clear();
  random_pool_.clear();
  random_pos_.clear();
  by_pattern_.clear();
}

std::vector<EventPtr> EventCache::snapshot_events() const {
  std::vector<EventPtr> out;
  out.reserve(by_id_.size());
  for (std::uint32_t i = head_; i != kNil; i = nodes_[i].next) {
    out.push_back(nodes_[i].event);
  }
  return out;
}

bool EventCache::contains(const EventId& id) const {
  return by_id_.contains(id);
}

EventPtr EventCache::hit(std::uint32_t slot) {
  ++stats_.hits;
  if (policy_ == CachePolicy::Lru && slot != tail_) {
    unlink(slot);  // refresh recency
    link_back(slot);
  }
  return nodes_[slot].event;
}

EventPtr EventCache::get(const EventId& id) {
  HotpathProfiler::MaybeScope scope(profiler_, HotPhase::CacheOp);
  const std::uint32_t* slot = by_id_.find(id);
  if (slot == nullptr) {
    ++stats_.misses;
    return nullptr;
  }
  return hit(*slot);
}

EventPtr EventCache::find(NodeId source, Pattern pattern, SeqNo seq) {
  HotpathProfiler::MaybeScope scope(profiler_, HotPhase::CacheOp);
  if (!stream_seq_index_) {
    // First reader: index what is cached now and keep the index from here.
    stream_seq_index_ = true;
    for (std::uint32_t i = head_; i != kNil; i = nodes_[i].next) {
      index_stream_seqs(i);
    }
  }
  const std::uint32_t* slot =
      by_stream_seq_.find(LostEntryInfo{source, pattern, seq});
  if (slot == nullptr) {
    ++stats_.misses;
    return nullptr;
  }
  return hit(*slot);
}

std::vector<EventId> EventCache::ids_matching(Pattern pattern,
                                              std::size_t max_entries) {
  std::vector<EventId> out;
  ids_matching_into(pattern, max_entries, out);
  return out;
}

void EventCache::ids_matching_into(Pattern pattern, std::size_t max_entries,
                                   std::vector<EventId>& out) {
  EPICAST_ASSERT_MSG(pattern_index_,
                     "ids_matching() needs keep_pattern_index()");
  out.clear();
  HotpathProfiler::MaybeScope scope(profiler_, HotPhase::CacheOp);
  PatternIds* bucket = by_pattern_.find(pattern);
  if (bucket == nullptr) return;

  const auto live_begin =
      bucket->ids.begin() + static_cast<std::ptrdiff_t>(bucket->head);
  if (policy_ == CachePolicy::Fifo) {
    // FIFO invariant: every eviction removes the globally oldest event,
    // whose ids sit at the fronts of its own pattern queues — the eager
    // purge in unindex_patterns() strips them immediately, so the queues
    // hold live ids only and no per-id liveness probe is needed. Copy the
    // newest max_entries straight out (they are the ones receivers most
    // likely miss and the ones that survive longest in our own buffer).
    const std::size_t n = (max_entries != 0 && bucket->size() > max_entries)
                              ? max_entries
                              : bucket->size();
    out.insert(out.end(), bucket->ids.end() - static_cast<std::ptrdiff_t>(n),
               bucket->ids.end());
    return;
  }
  // Lazy purge: evicted ids are dropped as they are encountered (LRU and
  // random eviction scatter stale ids through the queue).
  for (auto it = live_begin; it != bucket->ids.end(); ++it) {
    if (by_id_.contains(*it)) out.push_back(*it);
  }
  if (out.size() * 2 < bucket->size()) {
    // Compact when more than half the bucket is stale (LRU/random scatter).
    bucket->ids.assign(out.begin(), out.end());
    bucket->head = 0;
  } else {
    while (!bucket->empty() && !by_id_.contains(bucket->front())) {
      bucket->pop_front();
    }
  }
  if (max_entries != 0 && out.size() > max_entries) {
    // Keep the newest entries: they are the ones receivers most likely miss
    // and the ones that will survive longest in our own buffer.
    out.erase(out.begin(),
              out.end() - static_cast<std::ptrdiff_t>(max_entries));
  }
}

std::size_t EventCache::pattern_index_entries() const {
  std::size_t n = 0;
  by_pattern_.for_each(
      [&n](Pattern, const PatternIds& bucket) { n += bucket.size(); });
  return n;
}

std::size_t EventCache::memory_bytes() const {
  std::size_t bytes = nodes_.capacity() * sizeof(Node);
  bytes += free_.capacity() * sizeof(std::uint32_t);
  bytes += by_id_.memory_bytes();
  bytes += by_stream_seq_.memory_bytes();
  bytes += random_pool_.capacity() * sizeof(std::uint32_t);
  bytes += random_pos_.capacity() * sizeof(std::uint32_t);
  bytes += by_pattern_.memory_bytes();
  by_pattern_.for_each([&bytes](Pattern, const PatternIds& bucket) {
    bytes += bucket.ids.capacity() * sizeof(EventId);
  });
  return bytes;
}

}  // namespace epicast
