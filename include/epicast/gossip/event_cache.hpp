// epicast — the retransmission buffer (β in the paper).
//
// Each dispatcher keeps a bounded cache of events "for which it is either
// the publisher or a subscriber" (§IV-A); retransmission requests are served
// from it. Eviction is FIFO, as in the paper: a full cache drops its oldest
// insertion.
//
// The cache keeps only what is its own: its eviction order and one
// membership bit per entry of its runtime's EventRegistry, which indexes
// every event some cache on the runtime holds (gossip/event_registry.hpp).
// An event cached by several dispatchers is indexed once, by its first
// holder, and unindexed once, by its last. Lookups:
//   * by event id — serves push requests: a registry id probe plus a bit
//     test;
//   * by (source, pattern, seq) — serves pull digests: a registry stream
//     probe plus a bit test;
//   * ids matching a pattern — builds push digests from a per-pattern
//     index kept per cache, since a digest lists this node's ids in this
//     node's insertion order. The index holds registry entries (4 bytes),
//     not id copies (16), and a digest reads each id from the registry:
//     the cache holds every entry its queues name, so none of them can be
//     recycled while queued. Only its reader (the push protocol) keeps
//     it, opting in with keep_pattern_index() before the first insert.
// All of it grows with what the cache holds, since β is a ceiling: on a
// large overlay most caches hold a few events against a β of hundreds. The
// eviction order doubles as it fills but never past β, so a full cache
// ends at exactly β entries and its insert-evict churn allocates nothing.
//
// A cache must not outlive the runtime whose registry it uses — the rule
// timers follow. Its destructor and clear() release every entry it holds.
#pragma once

#include <cstdint>
#include <vector>

#include "epicast/common/flat_hash_map.hpp"
#include "epicast/common/ids.hpp"
#include "epicast/gossip/event_registry.hpp"
#include "epicast/metrics/hotpath_profiler.hpp"
#include "epicast/pubsub/event.hpp"

namespace epicast {

class EventCache {
 public:
  EventCache(std::size_t capacity, EventRegistry& registry);
  ~EventCache();
  EventCache(const EventCache&) = delete;
  EventCache& operator=(const EventCache&) = delete;

  /// Optional hot-path profiler: every public cache operation counts one
  /// HotPhase::CacheOp. Pass nullptr to detach.
  void set_profiler(HotpathProfiler* profiler) { profiler_ = profiler; }

  /// Inserts an event, evicting the oldest if full. Returns false (and does
  /// nothing) if the event is already cached.
  bool insert(const EventPtr& event);

  [[nodiscard]] bool contains(const EventId& id) const;

  /// Event by id, or nullptr. Counts a hit or a miss.
  [[nodiscard]] EventPtr get(const EventId& id);

  /// Event that the source tagged with (pattern, seq), or nullptr. The
  /// first call on the runtime builds the registry's stream index.
  [[nodiscard]] EventPtr find(NodeId source, Pattern pattern, SeqNo seq);

  /// Keeps the per-pattern id index that ids_matching() reads. Must be
  /// called before the first insert: the index records insertion order.
  void keep_pattern_index();

  /// Ids of cached events matching `pattern`, oldest insertion first.
  /// Requires keep_pattern_index().
  [[nodiscard]] std::vector<EventId> ids_matching(Pattern pattern) const;

  /// As above into a caller-owned scratch buffer (cleared first) — the push
  /// round builds one digest per round per node.
  void ids_matching_into(Pattern pattern, std::vector<EventId>& out) const;

  /// Total entries across the per-pattern index; 0 when the index is not
  /// kept (introspection: tests pin that it holds live entries only).
  [[nodiscard]] std::size_t pattern_index_entries() const;

  [[nodiscard]] std::size_t size() const { return order_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Eviction-order slots allocated so far: grows with size(), never past
  /// capacity() (introspection: tests pin the growth bound on this).
  [[nodiscard]] std::size_t slot_capacity() const { return order_.capacity(); }

  /// Estimated bytes owned by the cache's containers (eviction order,
  /// membership bits and the per-pattern index; the registry and the
  /// shared events are counted once per runtime, not here) — per-component
  /// memory accounting for the scale figures.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Drops every cached event and all indexes, releasing each registry
  /// entry (cold restart). Counters are kept — a crash does not un-happen
  /// the traffic that preceded it.
  void clear();

  /// Every cached event in eviction order (next victim first). Warm-restart
  /// snapshots serialize this; re-inserting the list into an empty cache of
  /// the same capacity reproduces the eviction order exactly.
  [[nodiscard]] std::vector<EventPtr> snapshot_events() const;

  struct Stats {
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// One pattern's cached events as registry entries, insertion-ordered:
  /// a queue over a vector, live from `head` on. The prefix is compacted
  /// away once it is at least half the vector, so pops are amortized O(1)
  /// and an empty queue owns no heap block until its first push.
  struct PatternEntries {
    std::vector<std::uint32_t> entries;
    std::uint32_t head = 0;

    [[nodiscard]] bool empty() const { return head == entries.size(); }
    [[nodiscard]] std::size_t size() const { return entries.size() - head; }
    [[nodiscard]] std::uint32_t front() const { return entries[head]; }
    void pop_front();
  };

  /// Drops the oldest entry, at head_; the caller overwrites its slot.
  void evict_oldest();
  /// Calls f on each held registry entry, oldest first.
  template <typename F>
  void for_each_oldest_first(F&& f) const;
  /// True if this cache holds the registry entry (kNone never is).
  [[nodiscard]] bool holds(std::uint32_t entry) const {
    const std::size_t word = entry >> 6;
    return word < member_.size() && ((member_[word] >> (entry & 63)) & 1U);
  }
  /// Counts a hit or a miss for a registry lookup; on a hit returns the
  /// entry's event.
  [[nodiscard]] EventPtr hit_or_miss(std::uint32_t entry);

  std::size_t capacity_;
  EventRegistry& registry_;
  Stats stats_;
  HotpathProfiler* profiler_ = nullptr;

  /// Eviction order: the registry entries held. While the cache fills
  /// they are appended, oldest first from index 0; once it is full the
  /// vector is a ring whose oldest entry sits at head_, and an insert
  /// overwrites it and advances head_. Only clear() empties a cache, so a
  /// cache short of β always has head_ == 0.
  std::vector<std::uint32_t> order_;
  std::size_t head_ = 0;
  /// One bit per registry entry: set while this cache holds it.
  std::vector<std::uint64_t> member_;

  /// Per-pattern entry index, kept after keep_pattern_index(). FIFO
  /// evicts the oldest insertion, which is the front of each of its own
  /// queues, so each eviction pops it and the queues hold live entries
  /// only.
  bool pattern_index_ = false;
  FlatHashMap<Pattern, PatternEntries, PatternKey> by_pattern_;
};

}  // namespace epicast
