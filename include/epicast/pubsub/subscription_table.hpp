// epicast — per-dispatcher subscription table.
//
// For every pattern the table records (a) whether this dispatcher is itself
// a subscriber ("local", i.e., one of its clients subscribed) and (b) the
// set of neighbour next-hops behind which subscribers live — the routes laid
// down by subscription forwarding (paper §II, Fig. 1).
//
// The push algorithm draws its gossip pattern from the *whole* table (local
// + routes), the pull algorithms only from local subscriptions (§III-B) —
// hence the separate enumeration helpers.
//
// Hot-path layout: one width-dynamic PatternSet per neighbour with at least
// one route, plus `local_mask_` / `known_mask_` summaries. This replaces
// the per-pattern next-hop vectors (O(Π · degree) pointers per node): a
// node's whole routing state is now O(degree · Π/8) bytes of bitmask, the
// layout that makes 10⁴-node scenarios with 10³-pattern universes fit in
// cache. Every enumeration keeps ascending pattern order and ascending
// NodeId order for route targets — identical to the sorted vectors this
// replaced (the event path used to sort + dedup the union; iterating
// neighbours in ascending NodeId order yields exactly that).
#pragma once

#include <cstdint>
#include <vector>

#include "epicast/common/arena.hpp"
#include "epicast/common/ids.hpp"
#include "epicast/common/pattern_set.hpp"
#include "epicast/pubsub/event.hpp"

namespace epicast {

class SubscriptionTable {
 public:
  SubscriptionTable() = default;

  /// Pre-sizes the summary masks for patterns in [0, universe), drawing
  /// multi-word storage from `arena` (per-scenario node state). Optional:
  /// the masks auto-grow without it; this avoids the growth copies and
  /// keeps large-universe state arena-resident.
  void reserve_universe(std::uint32_t universe, Arena* arena);

  /// Marks this dispatcher as a subscriber for `p`.
  /// Returns false if it already was.
  bool add_local(Pattern p);

  /// Clears the local-subscriber mark. Returns false if it was not set.
  bool remove_local(Pattern p);

  /// Records that events matching `p` must be forwarded to `next_hop`.
  /// Returns false if that route was already present.
  bool add_route(Pattern p, NodeId next_hop);

  /// add_route(p, next_hop) for every p in `patterns`, in one pass — the
  /// same table state, memory footprint included.
  void add_routes(NodeId next_hop, const PatternSet& patterns);

  /// Removes one route. Returns false if it was not present.
  bool remove_route(Pattern p, NodeId next_hop);

  /// Drops every route through `neighbor` (e.g., its link broke).
  void remove_neighbor(NodeId neighbor);

  /// Drops all routes, keeping local subscriptions (used when routes are
  /// rebuilt after a reconfiguration).
  void clear_routes();

  [[nodiscard]] bool has_local(Pattern p) const;
  [[nodiscard]] bool has_route(Pattern p, NodeId next_hop) const;
  /// True if the table has any entry (local or route) for p.
  [[nodiscard]] bool knows(Pattern p) const;

  /// True if this dispatcher is locally subscribed to any of the event's
  /// patterns — i.e., the event must be delivered here. A single mask
  /// intersection regardless of universe size.
  [[nodiscard]] bool matches_local(const EventData& event) const;

  /// Union of next-hops for all the event's patterns, minus `exclude`
  /// (the neighbour the event arrived from). Ascending NodeId order.
  [[nodiscard]] std::vector<NodeId> route_targets(const EventData& event,
                                                  NodeId exclude) const;

  /// As above, but reusing `out` (cleared first) — the forwarding hot path
  /// calls this once per received event, so a caller-owned scratch buffer
  /// avoids an allocation per event.
  void route_targets_into(const EventData& event, NodeId exclude,
                          std::vector<NodeId>& out) const;

  /// Next-hops for a single pattern, minus `exclude`.
  [[nodiscard]] std::vector<NodeId> route_targets(Pattern p,
                                                  NodeId exclude) const;

  /// Scratch-buffer variant of the above (gossip rounds route one digest
  /// per round per node).
  void route_targets_into(Pattern p, NodeId exclude,
                          std::vector<NodeId>& out) const;

  /// Patterns with any entry — the push algorithm's sampling population.
  [[nodiscard]] std::vector<Pattern> known_patterns() const;
  /// As above into a caller-owned scratch buffer (cleared first).
  void known_patterns_into(std::vector<Pattern>& out) const;
  /// Size of the sampling population without materializing it.
  [[nodiscard]] std::size_t known_pattern_count() const;
  /// The k-th known pattern in ascending order (k < known_pattern_count())
  /// — equals known_patterns()[k], without building the vector.
  [[nodiscard]] Pattern known_pattern_at(std::size_t k) const;

  /// Patterns with a local subscription — the pull sampling population.
  [[nodiscard]] std::vector<Pattern> local_patterns() const;
  /// As above into a caller-owned scratch buffer (cleared first).
  void local_patterns_into(std::vector<Pattern>& out) const;

  /// Bitset of locally subscribed patterns (complete at any universe size).
  [[nodiscard]] const PatternSet& local_mask() const { return local_mask_; }
  /// Bitset of all known patterns (complete at any universe size).
  [[nodiscard]] const PatternSet& known_mask() const { return known_mask_; }

  [[nodiscard]] std::size_t entry_count() const;

  /// Bytes owned by this table beyond the object itself (mask storage +
  /// per-neighbour entries) — per-component memory accounting.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  /// All routes through one neighbour, as a pattern bitmask.
  struct NeighborRoutes {
    NodeId neighbor;
    PatternSet patterns;
  };

  /// The entry for `next_hop`, inserted (empty) if absent.
  NeighborRoutes& routes_to(NodeId next_hop);
  [[nodiscard]] NeighborRoutes* find_routes(NodeId neighbor);
  [[nodiscard]] const NeighborRoutes* find_routes(NodeId neighbor) const;
  /// After clearing `p` somewhere: drop the known bit unless `p` is still
  /// local or routed via some neighbour.
  void reconcile_known(Pattern p);

  /// Sorted by neighbour id; entries with an all-zero mask are erased so
  /// route_targets never scans dead neighbours.
  std::vector<NeighborRoutes> routes_;
  PatternSet known_mask_;
  PatternSet local_mask_;
  Arena* arena_ = nullptr;
  std::uint32_t universe_hint_ = 0;
};

}  // namespace epicast
