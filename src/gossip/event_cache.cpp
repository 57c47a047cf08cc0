#include "epicast/gossip/event_cache.hpp"

#include <algorithm>

#include "epicast/common/assert.hpp"

namespace epicast {
namespace {

/// Makes room for one more element of a vector that never holds more than
/// `cap` (the cache's β): doubling, but capped at `cap`, so storage grows
/// with what the cache holds and a full cache ends at exactly β elements,
/// after which its insert-evict churn reallocates nothing.
template <typename T>
void grow_for_one(std::vector<T>& v, std::size_t cap) {
  if (v.size() < v.capacity()) return;
  v.reserve(std::min(cap, std::max<std::size_t>(1, 2 * v.capacity())));
}

}  // namespace

void EventCache::PatternIds::pop_front() {
  if (++head * 2 >= ids.size()) {
    ids.erase(ids.begin(), ids.begin() + head);
    head = 0;
  }
}

EventCache::EventCache(std::size_t capacity, CachePolicy policy, Rng rng,
                       EventRegistry& registry)
    : capacity_(capacity), policy_(policy), rng_(rng), registry_(registry) {
  EPICAST_ASSERT_MSG(capacity > 0, "cache capacity must be positive");
}

EventCache::~EventCache() {
  for (std::uint32_t i = head_; i != kNil; i = nodes_[i].next) {
    registry_.release(nodes_[i].entry);
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
  std::uint32_t entry = registry_.find(event->id());
  if (holds(entry)) return false;
  while (size_ >= capacity_) evict_one();
  // Eviction releases only entries this cache holds, so `entry` stays
  // live. The first holder registers the event; later ones only count.
  if (entry == EventRegistry::kNone) {
    entry = registry_.add(event);
  } else {
    registry_.retain(entry);
  }

  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(nodes_.size());
    grow_for_one(nodes_, capacity_);
    nodes_.emplace_back();
  }
  nodes_[slot].entry = entry;
  link_back(slot);
  const std::size_t word = entry >> 6;
  if (word >= member_.size()) member_.resize(word + 1);
  member_[word] |= std::uint64_t{1} << (entry & 63);
  if (policy_ == CachePolicy::Lru) {
    lru_slot_.try_emplace(entry, slot);
  } else if (policy_ == CachePolicy::Random) {
    if (slot >= random_pos_.size()) {
      grow_for_one(random_pos_, capacity_);
      random_pos_.resize(slot + 1);
    }
    random_pos_[slot] = static_cast<std::uint32_t>(random_pool_.size());
    grow_for_one(random_pool_, capacity_);
    random_pool_.push_back(slot);
  }
  if (pattern_index_) {
    for (const PatternSeq& ps : event->patterns()) {
      by_pattern_[ps.pattern].ids.push_back(event->id());
    }
  }
  ++size_;
  ++stats_.insertions;
  return true;
}

void EventCache::keep_pattern_index() {
  EPICAST_ASSERT_MSG(stats_.insertions == 0,
                     "the pattern index must be kept from the first insert");
  pattern_index_ = true;
}

void EventCache::unindex_patterns(const EventData& event) {
  // Precondition (see drop()): the event's membership bit is already
  // clear, so its ids count as stale below.
  for (const PatternSeq& ps : event.patterns()) {
    PatternIds* bucket = by_pattern_.find(ps.pattern);
    if (policy_ == CachePolicy::Fifo) {
      // FIFO evicts the oldest insertion, and every queue holds live ids
      // in insertion order: the victim is the front of each of its queues.
      EPICAST_ASSERT(bucket != nullptr && bucket->front() == event.id());
      bucket->pop_front();
    } else {
      // Eager head purge; stale ids in the middle (LRU/random scatter)
      // fall to ids_matching()'s lazy purge.
      if (bucket == nullptr) continue;
      while (!bucket->empty() && !contains(bucket->front())) {
        bucket->pop_front();
      }
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
  const std::uint32_t entry = nodes_[slot].entry;
  unlink(slot);
  free_.push_back(slot);
  // Clear the bit before unindexing so the eager purge sees the victim's
  // own ids as stale; release last, while the event is still registered.
  member_[entry >> 6] &= ~(std::uint64_t{1} << (entry & 63));
  --size_;
  if (policy_ == CachePolicy::Lru) lru_slot_.erase(entry);
  if (pattern_index_) unindex_patterns(*registry_.event(entry));
  registry_.release(entry);
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
  for (std::uint32_t i = head_; i != kNil; i = nodes_[i].next) {
    registry_.release(nodes_[i].entry);
  }
  nodes_.clear();
  free_.clear();
  head_ = kNil;
  tail_ = kNil;
  size_ = 0;
  member_.clear();
  lru_slot_.clear();
  random_pool_.clear();
  random_pos_.clear();
  by_pattern_.clear();
}

std::vector<EventPtr> EventCache::snapshot_events() const {
  std::vector<EventPtr> out;
  out.reserve(size_);
  for (std::uint32_t i = head_; i != kNil; i = nodes_[i].next) {
    out.push_back(registry_.event(nodes_[i].entry));
  }
  return out;
}

bool EventCache::contains(const EventId& id) const {
  return holds(registry_.find(id));
}

EventPtr EventCache::hit_or_miss(std::uint32_t entry) {
  if (!holds(entry)) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  if (policy_ == CachePolicy::Lru) {
    const std::uint32_t slot = *lru_slot_.find(entry);
    if (slot != tail_) {
      unlink(slot);  // refresh recency
      link_back(slot);
    }
  }
  return registry_.event(entry);
}

EventPtr EventCache::get(const EventId& id) {
  HotpathProfiler::MaybeScope scope(profiler_, HotPhase::CacheOp);
  return hit_or_miss(registry_.find(id));
}

EventPtr EventCache::find(NodeId source, Pattern pattern, SeqNo seq) {
  HotpathProfiler::MaybeScope scope(profiler_, HotPhase::CacheOp);
  return hit_or_miss(registry_.find(source, pattern, seq));
}

std::vector<EventId> EventCache::ids_matching(Pattern pattern) {
  std::vector<EventId> out;
  ids_matching_into(pattern, out);
  return out;
}

void EventCache::ids_matching_into(Pattern pattern, std::vector<EventId>& out) {
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
    // whose ids sit at the fronts of its own pattern queues —
    // unindex_patterns() pops them immediately, so the queues hold live
    // ids only and no per-id liveness probe is needed. Copy them straight
    // out.
    out.insert(out.end(), live_begin, bucket->ids.end());
    return;
  }
  // Lazy purge: evicted ids are dropped as they are encountered (LRU and
  // random eviction scatter stale ids through the queue). An event evicted
  // from the middle of the queue and inserted again also left its old id
  // behind, which looks as live as the new one. Walk newest first and list
  // each held entry once, at its newest position (its current insertion):
  // its membership bit is cleared while the walk runs, so an older copy
  // reads as stale, and set again afterwards.
  for (auto it = bucket->ids.end(); it != live_begin;) {
    --it;
    const std::uint32_t entry = registry_.find(*it);
    if (!holds(entry)) continue;
    out.push_back(*it);
    member_[entry >> 6] &= ~(std::uint64_t{1} << (entry & 63));
  }
  for (const EventId& id : out) {
    const std::uint32_t entry = registry_.find(id);
    member_[entry >> 6] |= std::uint64_t{1} << (entry & 63);
  }
  std::reverse(out.begin(), out.end());
  if (out.size() * 2 < bucket->size()) {
    // Compact when more than half the bucket is stale (LRU/random scatter).
    bucket->ids.assign(out.begin(), out.end());
    bucket->head = 0;
  } else {
    while (!bucket->empty() && !contains(bucket->front())) {
      bucket->pop_front();
    }
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
  bytes += member_.capacity() * sizeof(std::uint64_t);
  bytes += lru_slot_.memory_bytes();
  bytes += random_pool_.capacity() * sizeof(std::uint32_t);
  bytes += random_pos_.capacity() * sizeof(std::uint32_t);
  bytes += by_pattern_.memory_bytes();
  by_pattern_.for_each([&bytes](Pattern, const PatternIds& bucket) {
    bytes += bucket.ids.capacity() * sizeof(EventId);
  });
  return bytes;
}

}  // namespace epicast
