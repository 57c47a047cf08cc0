// epicast — the Lost buffer (§III-B, Pull).
//
// Holds the (source, pattern, seq) triples of events known to be missing.
// Pull gossip rounds draw digests from it; entries disappear when the event
// is finally received, when they exceed the recovery TTL, or when the
// buffer overflows (oldest first).
//
// Entries sit in one age-ordered vector, live from a head index; a
// FlatHashMap keyed by the triple holds each entry's position, so the
// per-event remove() probe (one per pattern of every received event) is a
// flat-array lookup behind the pattern-mask reject, and every digest query
// is one sequential scan. A removed entry becomes a tombstone: the dead
// prefix is trimmed as the head passes it, and the vector is compacted
// once tombstones outnumber live entries, so removal stays O(1) amortized
// and the vector never holds more than about twice the live entries.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "epicast/common/flat_hash_map.hpp"
#include "epicast/common/ids.hpp"
#include "epicast/common/pattern_set.hpp"
#include "epicast/gossip/messages.hpp"
#include "epicast/sim/time.hpp"

namespace epicast {

class LostBuffer {
 public:
  LostBuffer(std::size_t capacity, Duration ttl);

  /// Registers a missing event. Returns false if already present.
  bool add(const LostEntryInfo& entry, SimTime now);

  /// Removes one entry (typically because the event arrived).
  /// Returns true if it was present.
  bool remove(const LostEntryInfo& entry);

  /// Drops entries older than the TTL. Returns how many expired.
  std::size_t expire(SimTime now);

  [[nodiscard]] bool contains(const LostEntryInfo& entry) const;
  [[nodiscard]] std::size_t size() const { return by_key_.size(); }
  [[nodiscard]] bool empty() const { return by_key_.empty(); }

  /// Entries whose pattern is `p` (subscriber-based digests), oldest first,
  /// at most `max_entries` (0 = all).
  [[nodiscard]] std::vector<LostEntryInfo> entries_for_pattern(
      Pattern p, std::size_t max_entries) const;

  /// As above into a caller-owned scratch buffer (cleared first) — pull
  /// rounds build one digest per round per node.
  void entries_for_pattern_into(Pattern p, std::size_t max_entries,
                                std::vector<LostEntryInfo>& out) const;

  /// Entries whose source is `s` (publisher-based digests), oldest first.
  [[nodiscard]] std::vector<LostEntryInfo> entries_for_source(
      NodeId s, std::size_t max_entries) const;

  /// All entries, oldest first (random pull digests).
  [[nodiscard]] std::vector<LostEntryInfo> all_entries(
      std::size_t max_entries) const;

  /// Distinct patterns with at least one entry, sorted.
  [[nodiscard]] std::vector<Pattern> patterns_with_losses() const;

  /// Number of distinct patterns with at least one entry — the pull
  /// sampling population size, without materializing the vector.
  [[nodiscard]] std::size_t patterns_with_losses_count() const {
    return pattern_mask_.count();
  }
  /// The k-th distinct pattern in ascending order
  /// (k < patterns_with_losses_count()) — equals patterns_with_losses()[k].
  [[nodiscard]] Pattern pattern_with_losses_at(std::size_t k) const;

  /// Distinct sources with at least one entry, sorted.
  [[nodiscard]] std::vector<NodeId> sources_with_losses() const;

  /// Distinct sources ordered by the age of their oldest pending entry
  /// (oldest first), keeping only those accepted by `pred`; at most
  /// `max_sources`.
  [[nodiscard]] std::vector<NodeId> oldest_sources(
      std::size_t max_sources,
      const std::function<bool(NodeId)>& pred) const;

  /// Forgets every pending entry (cold restart). Counters are kept.
  void clear();

  struct Stats {
    std::uint64_t added = 0;
    std::uint64_t recovered = 0;  ///< removed because the event arrived
    std::uint64_t expired = 0;
    std::uint64_t overflowed = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    LostEntryInfo info;
    SimTime detected_at;
    bool live = true;
  };
  /// Calls fn(info) for every live entry, oldest first, until fn returns
  /// false.
  template <typename Fn>
  void scan(Fn&& fn) const;
  template <typename Pred>
  [[nodiscard]] std::vector<LostEntryInfo> collect(
      Pred&& pred, std::size_t max_entries) const;

  /// Tombstones the entry at `pos` and drops it from the index and the
  /// pattern summary.
  void kill(std::uint32_t pos);
  /// Advances head_ past the dead prefix; compacts the vector when
  /// tombstones outnumber live entries.
  void settle();

  void note_added(Pattern p);
  void note_removed(Pattern p);
  /// True if no entry can possibly have this pattern — lets remove() (one
  /// call per pattern of every received event, overwhelmingly misses)
  /// skip the hash lookup. test() is false beyond the mask's width, so any
  /// universe size is covered.
  [[nodiscard]] bool surely_absent(Pattern p) const {
    return !pattern_mask_.test(p);
  }

  std::size_t capacity_;
  Duration ttl_;
  std::vector<Entry> order_;  // oldest first; live from head_ on
  std::size_t head_ = 0;      // first live entry, or order_.size()
  FlatHashMap<LostEntryInfo, std::uint32_t, LostEntryKey> by_key_;  // → pos
  /// Distinct-pattern summary: a bit per pattern with >= 1 entry plus
  /// per-pattern entry counts (so the bit can be cleared on last removal).
  /// Both the width-dynamic mask and the counts vector grow with the
  /// highest pattern value seen, so any universe size stays on this path.
  PatternSet pattern_mask_;
  std::vector<std::uint32_t> pattern_counts_;
  Stats stats_;
};

}  // namespace epicast
