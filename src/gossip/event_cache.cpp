#include "epicast/gossip/event_cache.hpp"

#include <algorithm>

#include "epicast/common/assert.hpp"

namespace epicast {

void EventCache::PatternEntries::pop_front() {
  if (++head * 2 >= entries.size()) {
    entries.erase(entries.begin(), entries.begin() + head);
    head = 0;
  }
}

template <typename F>
void EventCache::for_each_oldest_first(F&& f) const {
  for (std::size_t i = head_; i < order_.size(); ++i) f(order_[i]);
  for (std::size_t i = 0; i < head_; ++i) f(order_[i]);
}

EventCache::EventCache(std::size_t capacity, EventRegistry& registry)
    : capacity_(capacity), registry_(registry) {
  EPICAST_ASSERT_MSG(capacity > 0, "cache capacity must be positive");
}

EventCache::~EventCache() {
  for_each_oldest_first([this](std::uint32_t e) { registry_.release(e); });
}

bool EventCache::insert(const EventPtr& event) {
  EPICAST_ASSERT(event != nullptr);
  HotpathProfiler::MaybeScope scope(profiler_, HotPhase::CacheOp);
  std::uint32_t entry = registry_.find(event->id());
  if (holds(entry)) return false;
  const bool full = order_.size() == capacity_;
  if (full) evict_oldest();
  // Eviction releases only entries this cache holds, so `entry` stays
  // live. The first holder registers the event; later ones only count.
  if (entry == EventRegistry::kNone) {
    entry = registry_.add(event);
  } else {
    registry_.retain(entry);
  }

  if (full) {
    order_[head_] = entry;
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  } else {
    // Doubling, but capped at β: storage grows with what the cache holds,
    // and a full cache ends at exactly β entries.
    if (order_.size() == order_.capacity()) {
      order_.reserve(std::min(capacity_, std::max<std::size_t>(
                                             1, 2 * order_.capacity())));
    }
    order_.push_back(entry);
  }
  const std::size_t word = entry >> 6;
  if (word >= member_.size()) member_.resize(word + 1);
  member_[word] |= std::uint64_t{1} << (entry & 63);
  if (pattern_index_) {
    for (const PatternSeq& ps : event->patterns()) {
      by_pattern_[ps.pattern].entries.push_back(entry);
    }
  }
  ++stats_.insertions;
  return true;
}

void EventCache::keep_pattern_index() {
  EPICAST_ASSERT_MSG(stats_.insertions == 0,
                     "the pattern index must be kept from the first insert");
  pattern_index_ = true;
}

void EventCache::evict_oldest() {
  const std::uint32_t victim = order_[head_];
  member_[victim >> 6] &= ~(std::uint64_t{1} << (victim & 63));
  if (pattern_index_) {
    // Every queue holds live entries in insertion order, so the oldest
    // insertion is the front of each of its queues.
    for (const PatternSeq& ps : registry_.event(victim)->patterns()) {
      PatternEntries* bucket = by_pattern_.find(ps.pattern);
      EPICAST_ASSERT(bucket != nullptr && bucket->front() == victim);
      bucket->pop_front();
      if (bucket->empty()) by_pattern_.erase(ps.pattern);
    }
  }
  // Release last, while the event is still registered.
  registry_.release(victim);
  ++stats_.evictions;
}

void EventCache::clear() {
  for_each_oldest_first([this](std::uint32_t e) { registry_.release(e); });
  order_.clear();
  head_ = 0;
  member_.clear();
  by_pattern_.clear();
}

std::vector<EventPtr> EventCache::snapshot_events() const {
  std::vector<EventPtr> out;
  out.reserve(order_.size());
  for_each_oldest_first(
      [&](std::uint32_t e) { out.push_back(registry_.event(e)); });
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

std::vector<EventId> EventCache::ids_matching(Pattern pattern) const {
  std::vector<EventId> out;
  ids_matching_into(pattern, out);
  return out;
}

void EventCache::ids_matching_into(Pattern pattern,
                                   std::vector<EventId>& out) const {
  EPICAST_ASSERT_MSG(pattern_index_,
                     "ids_matching() needs keep_pattern_index()");
  out.clear();
  HotpathProfiler::MaybeScope scope(profiler_, HotPhase::CacheOp);
  if (const PatternEntries* bucket = by_pattern_.find(pattern)) {
    out.reserve(bucket->size());
    for (std::size_t i = bucket->head; i < bucket->entries.size(); ++i) {
      out.push_back(registry_.event(bucket->entries[i])->id());
    }
  }
}

std::size_t EventCache::pattern_index_entries() const {
  std::size_t n = 0;
  by_pattern_.for_each(
      [&n](Pattern, const PatternEntries& bucket) { n += bucket.size(); });
  return n;
}

std::size_t EventCache::memory_bytes() const {
  std::size_t bytes = order_.capacity() * sizeof(std::uint32_t);
  bytes += member_.capacity() * sizeof(std::uint64_t);
  bytes += by_pattern_.memory_bytes();
  by_pattern_.for_each([&bytes](Pattern, const PatternEntries& bucket) {
    bytes += bucket.entries.capacity() * sizeof(std::uint32_t);
  });
  return bytes;
}

}  // namespace epicast
