// epicast — the retransmission buffer (β in the paper).
//
// Each dispatcher keeps a bounded cache of events "for which it is either
// the publisher or a subscriber" (§IV-A); retransmission requests are served
// from it. The paper uses FIFO eviction; LRU and random eviction are
// provided for the cache-policy ablation.
//
// Lookup paths (all O(1) expected; the first two are one FlatHashMap probe
// straight to the event's cache slot):
//   * by event id        — serves push requests;
//   * by (source, pattern, seq) — serves pull digests;
//   * ids matching a pattern    — builds push digests (amortized via a
//     per-pattern index, purged eagerly on eviction and lazily on lookup).
// Only the id index is kept for every cache. The other two exist only for
// a reader, since keeping them costs a probe and an insert per pattern of
// every cached event:
//   * the (source, pattern, seq) index is built from the cached events on
//     the first find() and kept up to date from then on. A map built from
//     the current contents answers exactly like one kept from the start,
//     so a node that starts serving pull digests late (a push node under
//     heterogeneous tolerance) serves them all the same;
//   * the per-pattern index lists ids oldest-inserted first, an order the
//     slots do not remember under LRU, so its reader (the push protocol)
//     opts in with keep_pattern_index() before the first insert.
// The slot vector is reserved to β up front; the indexes grow with what
// the cache actually holds, so a node that caches little owns little.
#pragma once

#include <cstdint>
#include <vector>

#include "epicast/common/flat_hash_map.hpp"
#include "epicast/common/ids.hpp"
#include "epicast/common/rng.hpp"
#include "epicast/gossip/config.hpp"
#include "epicast/gossip/messages.hpp"
#include "epicast/metrics/hotpath_profiler.hpp"
#include "epicast/pubsub/event.hpp"

namespace epicast {

class EventCache {
 public:
  EventCache(std::size_t capacity, CachePolicy policy, Rng rng);

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
  /// first call builds the (source, pattern, seq) index.
  [[nodiscard]] EventPtr find(NodeId source, Pattern pattern, SeqNo seq);

  /// Keeps the per-pattern id index that ids_matching() reads. Must be
  /// called before the first insert: the index records insertion order.
  void keep_pattern_index();

  /// Ids of cached events matching `pattern`, oldest first; at most
  /// `max_entries` (0 = all). Requires keep_pattern_index().
  [[nodiscard]] std::vector<EventId> ids_matching(Pattern pattern,
                                                  std::size_t max_entries);

  /// As above into a caller-owned scratch buffer (cleared first) — the push
  /// round builds one digest per round per node.
  void ids_matching_into(Pattern pattern, std::size_t max_entries,
                         std::vector<EventId>& out);

  /// Total entries across the per-pattern id index, live + stale; 0 when
  /// the index is not kept (introspection: tests pin the eager-purge bound
  /// on this).
  [[nodiscard]] std::size_t pattern_index_entries() const;

  [[nodiscard]] std::size_t size() const { return by_id_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] CachePolicy policy() const { return policy_; }

  /// Estimated bytes owned by the cache's containers (slots + the indexes
  /// kept, excluding the shared events themselves) — per-component memory
  /// accounting for the scale figures.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Drops every cached event and all indexes (cold restart). Counters are
  /// kept — a crash does not un-happen the traffic that preceded it.
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
  /// Adds the slot's event to the kept (source, pattern, seq) and
  /// per-pattern indexes.
  void index_patterns(std::uint32_t slot);
  void unindex_patterns(const EventData& event);
  void index_stream_seqs(std::uint32_t slot);
  /// Counts a hit, refreshes recency for LRU, returns the slot's event.
  [[nodiscard]] EventPtr hit(std::uint32_t slot);

  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  void link_back(std::uint32_t slot);
  void unlink(std::uint32_t slot);

  std::size_t capacity_;
  CachePolicy policy_;
  Rng rng_;
  Stats stats_;
  HotpathProfiler* profiler_ = nullptr;

  /// Eviction-order storage: a flat slot vector threaded with an intrusive
  /// doubly-linked index list (head_ = next victim for FIFO/LRU, tail_ =
  /// newest). Slots recycle through free_, so the steady state allocates
  /// nothing per insert/evict — the caches' insert-evict churn at full β is
  /// the hottest allocation site a scenario has. LRU refresh is an
  /// unlink/link_back pair; Random evicts a uniform element of the dense
  /// pool below.
  struct Node {
    EventPtr event;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_;
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  FlatHashMap<EventId, std::uint32_t, EventIdKey> by_id_;  // → slot
  /// (source, pattern, seq) → slot, one entry per pattern of each event;
  /// kept from the first find() on.
  bool stream_seq_index_ = false;
  FlatHashMap<LostEntryInfo, std::uint32_t, LostEntryKey> by_stream_seq_;
  /// For Random eviction: the occupied slots as a dense vector (O(1)
  /// uniform sampling) and, per slot, its position in that vector.
  std::vector<std::uint32_t> random_pool_;
  std::vector<std::uint32_t> random_pos_;

  /// Per-pattern id index, kept after keep_pattern_index(). Stale
  /// (evicted) ids are purged eagerly from the queue fronts on every
  /// eviction — under FIFO the victim *is* the front, so the index stays
  /// tight at small β — and lazily elsewhere in ids_matching() (LRU/random
  /// scatter).
  bool pattern_index_ = false;
  FlatHashMap<Pattern, PatternIds, PatternKey> by_pattern_;
};

}  // namespace epicast
