// epicast — the retransmission buffer (β in the paper).
//
// Each dispatcher keeps a bounded cache of events "for which it is either
// the publisher or a subscriber" (§IV-A); retransmission requests are served
// from it. The paper uses FIFO eviction; LRU and random eviction are
// provided for the cache-policy ablation.
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
//   * ids matching a pattern — builds push digests from a per-pattern id
//     index kept per cache, since a digest lists this node's ids in this
//     node's insertion order. Only its reader (the push protocol) keeps
//     it, opting in with keep_pattern_index() before the first insert.
// LRU also keeps an entry → slot map for its refresh; only the
// cache-policy ablation uses LRU. The slot vector is reserved to β up
// front; the bits and the pattern index grow with what the cache holds.
//
// A cache must not outlive the runtime whose registry it uses — the rule
// timers follow. Its destructor and clear() release every entry it holds.
#pragma once

#include <cstdint>
#include <vector>

#include "epicast/common/flat_hash_map.hpp"
#include "epicast/common/ids.hpp"
#include "epicast/common/rng.hpp"
#include "epicast/gossip/config.hpp"
#include "epicast/gossip/event_registry.hpp"
#include "epicast/metrics/hotpath_profiler.hpp"
#include "epicast/pubsub/event.hpp"

namespace epicast {

class EventCache {
 public:
  EventCache(std::size_t capacity, CachePolicy policy, Rng rng,
             EventRegistry& registry);
  ~EventCache();
  EventCache(const EventCache&) = delete;
  EventCache& operator=(const EventCache&) = delete;

  /// Optional hot-path profiler: every public cache operation counts one
  /// HotPhase::CacheOp. Pass nullptr to detach.
  void set_profiler(HotpathProfiler* profiler) { profiler_ = profiler; }

  /// Inserts an event, evicting per policy if full. Returns false (and does
  /// nothing) if the event is already cached. Precondition: capacity > 0.
  bool insert(const EventPtr& event);

  [[nodiscard]] bool contains(const EventId& id) const;

  /// Event by id, or nullptr. Counts a hit/miss; refreshes recency for LRU.
  [[nodiscard]] EventPtr get(const EventId& id);

  /// Event that the source tagged with (pattern, seq), or nullptr. The
  /// first call on the runtime builds the registry's stream index.
  [[nodiscard]] EventPtr find(NodeId source, Pattern pattern, SeqNo seq);

  /// Keeps the per-pattern id index that ids_matching() reads. Must be
  /// called before the first insert: the index records insertion order.
  void keep_pattern_index();

  /// Ids of cached events matching `pattern`, each once, in the order of
  /// their current insertion, oldest first. Requires keep_pattern_index().
  [[nodiscard]] std::vector<EventId> ids_matching(Pattern pattern);

  /// As above into a caller-owned scratch buffer (cleared first) — the push
  /// round builds one digest per round per node.
  void ids_matching_into(Pattern pattern, std::vector<EventId>& out);

  /// Total entries across the per-pattern id index, live + stale; 0 when
  /// the index is not kept (introspection: tests pin the eager-purge bound
  /// on this).
  [[nodiscard]] std::size_t pattern_index_entries() const;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] CachePolicy policy() const { return policy_; }

  /// Estimated bytes owned by the cache's containers (slots, membership
  /// bits and the per-cache indexes kept; the registry and the shared
  /// events are counted once per runtime, not here) — per-component
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
  /// One pattern's cached ids, insertion-ordered: a queue over a vector,
  /// live from `head` on. The prefix is compacted away once it is at least
  /// half the vector, so pops are amortized O(1) and an empty queue owns no
  /// heap block until its first push.
  struct PatternIds {
    std::vector<EventId> ids;
    std::uint32_t head = 0;

    [[nodiscard]] bool empty() const { return head == ids.size(); }
    [[nodiscard]] std::size_t size() const { return ids.size() - head; }
    [[nodiscard]] const EventId& front() const { return ids[head]; }
    void pop_front();
  };

  void evict_one();
  void drop(std::uint32_t slot);
  /// Drops the evicted event's ids from its pattern queues.
  void unindex_patterns(const EventData& event);
  /// True if this cache holds the registry entry (kNone never is).
  [[nodiscard]] bool holds(std::uint32_t entry) const {
    const std::size_t word = entry >> 6;
    return word < member_.size() && ((member_[word] >> (entry & 63)) & 1U);
  }
  /// Counts a hit or a miss for a registry lookup; on a hit refreshes
  /// recency for LRU and returns the entry's event.
  [[nodiscard]] EventPtr hit_or_miss(std::uint32_t entry);

  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  void link_back(std::uint32_t slot);
  void unlink(std::uint32_t slot);

  std::size_t capacity_;
  CachePolicy policy_;
  Rng rng_;
  EventRegistry& registry_;
  Stats stats_;
  HotpathProfiler* profiler_ = nullptr;
  std::size_t size_ = 0;

  /// Eviction-order storage: a flat slot vector threaded with an intrusive
  /// doubly-linked index list (head_ = next victim for FIFO/LRU, tail_ =
  /// newest). Slots recycle through free_, so the steady state allocates
  /// nothing per insert/evict — the caches' insert-evict churn at full β is
  /// the hottest allocation site a scenario has. LRU refresh is an
  /// unlink/link_back pair; Random evicts a uniform element of the dense
  /// pool below.
  struct Node {
    std::uint32_t entry = EventRegistry::kNone;  // registry entry
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_;
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  /// One bit per registry entry: set while this cache holds it.
  std::vector<std::uint64_t> member_;
  /// LRU only: the slot of each held entry, for the refresh on a hit.
  /// Sized by what the cache holds, not by the registry.
  FlatHashMap<std::uint32_t, std::uint32_t, U32Key> lru_slot_;
  /// For Random eviction: the occupied slots as a dense vector (O(1)
  /// uniform sampling) and, per slot, its position in that vector.
  std::vector<std::uint32_t> random_pool_;
  std::vector<std::uint32_t> random_pos_;

  /// Per-pattern id index, kept after keep_pattern_index(). Evicted ids
  /// leave the queue fronts on every eviction: under FIFO the victim *is*
  /// the front of each of its queues and is popped without a liveness
  /// probe, so the queues hold live ids only; under LRU/random stale fronts
  /// are purged eagerly and stale ids elsewhere lazily in ids_matching().
  bool pattern_index_ = false;
  FlatHashMap<Pattern, PatternIds, PatternKey> by_pattern_;
};

}  // namespace epicast
