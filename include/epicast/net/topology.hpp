// epicast — the overlay network topology.
//
// The paper's dispatching network is a single *unrooted tree* of dispatchers
// with at most four neighbours each (§IV-A). `Topology` maintains that
// adjacency, generates random degree-capped trees, and supports the
// reconfiguration primitive of §IV-A: remove one link (splitting the tree in
// two) and later add a replacement that reconnects the components.
//
// Scale overlays (net/overlays.hpp) reuse the same structure for cyclic
// graphs — the tree invariant is checked on demand, never assumed here.
//
// Layout: mutations run against per-node vectors (append order preserved —
// neighbour order is part of the deterministic behavior), while neighbors()
// serves from a flat CSR copy (offsets + one contiguous NodeId array),
// repacked lazily whenever the change-listener version counter has moved.
// Event forwarding and gossip fan-out iterate neighbours once per message,
// so at N=10⁴ the contiguous layout is what keeps those scans in cache;
// repacking is O(N+E) per mutation *batch* (reconfigurations are rare and
// paper-scale), not per query.
//
// The structure tolerates being temporarily a two-component forest — that is
// precisely the state during a repair window — and checks the tree invariant
// (N-1 edges, acyclic) on demand.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "epicast/common/ids.hpp"
#include "epicast/common/rng.hpp"

namespace epicast {

/// Read-only view of a flat (CSR) adjacency: the neighbours of node n are
/// neighbors[offsets[n] .. offsets[n+1]).
struct CsrAdjacency {
  std::span<const std::uint32_t> offsets;  ///< node_count() + 1 entries
  std::span<const NodeId> neighbors;

  [[nodiscard]] std::uint32_t node_count() const {
    return offsets.empty() ? 0
                           : static_cast<std::uint32_t>(offsets.size() - 1);
  }
};

/// An undirected overlay link, stored with endpoints in ascending order.
struct Link {
  NodeId a;
  NodeId b;

  Link(NodeId x, NodeId y) : a(x < y ? x : y), b(x < y ? y : x) {}
  friend auto operator<=>(const Link&, const Link&) = default;
};

class Topology {
 public:
  /// An edgeless topology over `node_count` nodes.
  Topology(std::uint32_t node_count, std::uint32_t max_degree);

  /// Builds a uniform random degree-capped tree: nodes are joined in random
  /// order, each new node attaching to a uniformly chosen node that still
  /// has degree headroom. Requires max_degree >= 2 for node_count > 2.
  static Topology random_tree(std::uint32_t node_count,
                              std::uint32_t max_degree, Rng& rng);

  /// A path (line) topology; handy in tests where hop counts must be exact.
  static Topology line(std::uint32_t node_count);

  /// A star with node 0 at the centre (requires max_degree >= N-1).
  static Topology star(std::uint32_t node_count);

  [[nodiscard]] std::uint32_t node_count() const {
    return static_cast<std::uint32_t>(adj_.size());
  }
  [[nodiscard]] std::uint32_t max_degree() const { return max_degree_; }
  [[nodiscard]] std::size_t link_count() const { return link_count_; }

  [[nodiscard]] bool has_link(NodeId a, NodeId b) const;
  /// Neighbours of `n` in link-insertion order, served from the flat CSR
  /// copy. The span is invalidated by the next add_link/remove_link.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId n) const;
  [[nodiscard]] std::uint32_t degree(NodeId n) const;
  /// The whole flat CSR copy behind neighbors(), in the same order.
  /// Invalidated like neighbors().
  [[nodiscard]] CsrAdjacency csr() const;

  /// Adds a link. Preconditions: distinct valid endpoints, link absent,
  /// both degrees below the cap.
  void add_link(NodeId a, NodeId b);

  /// Removes a link. Precondition: the link exists.
  void remove_link(NodeId a, NodeId b);

  /// All links, each reported once, in deterministic (sorted) order.
  [[nodiscard]] std::vector<Link> links() const;

  /// True if every node is reachable from node 0 (vacuously true for N=0).
  [[nodiscard]] bool connected() const;

  /// True if the graph is a single tree: connected with exactly N-1 links.
  [[nodiscard]] bool is_tree() const;

  /// Shortest path from `from` to `to` (inclusive of both endpoints), or
  /// nullopt if unreachable. On a tree this is the unique path.
  [[nodiscard]] std::optional<std::vector<NodeId>> path(NodeId from,
                                                        NodeId to) const;

  /// Hop distance, or nullopt if unreachable.
  [[nodiscard]] std::optional<std::uint32_t> distance(NodeId from,
                                                      NodeId to) const;

  /// Nodes in the connected component containing `n`.
  [[nodiscard]] std::vector<NodeId> component_of(NodeId n) const;

  /// Mean hop distance over all unordered node pairs (components only),
  /// reported with every scenario result. `sample_sources` > 0 estimates
  /// from a deterministic stride sample of sources (0, stride, 2·stride, …)
  /// instead of all N, counting each source's pairs (s, t) with t > s.
  /// Runs in every scenario's set-up: a bit-parallel BFS advances 64
  /// sources a level, in one pass over the CSR while the frontier is large
  /// and over the frontier's neighbours alone while it is small, so a level
  /// costs at most a few times its frontier's neighbour slots. A batch of
  /// 64 sources costs about one pass per level on small-diameter overlays
  /// and a small constant times its 64 serial BFSs on any overlay. Sums
  /// are exact integers, so the result equals one serial BFS per source
  /// bit for bit.
  [[nodiscard]] double mean_pairwise_distance(
      std::uint32_t sample_sources = 0) const;

  /// Called after every add_link/remove_link with the affected link.
  /// Observers must not mutate the topology re-entrantly.
  using ChangeListener = std::function<void(const Link&, bool added)>;
  void add_change_listener(ChangeListener listener);

  /// Monotone counter bumped on every structural change; lets caches detect
  /// staleness cheaply (the internal CSR copy uses it too).
  [[nodiscard]] std::uint64_t version() const { return version_; }

  /// Bytes owned by the adjacency structures (mutation vectors + CSR copy
  /// + BFS scratch) — per-component memory accounting.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Graphviz rendering of the current overlay (debugging, examples):
  /// `dot -Tpng` turns it into a picture of the dispatching tree.
  [[nodiscard]] std::string to_dot() const;

 private:
  void check_node(NodeId n) const;
  /// Rebuilds the flat CSR copy if the version moved since the last pack.
  void repack_if_stale() const;
  /// Stamps the BFS scratch for a fresh traversal and returns the stamp.
  std::uint32_t fresh_visit_stamp() const;

  std::vector<std::vector<NodeId>> adj_;
  std::uint32_t max_degree_;
  std::size_t link_count_ = 0;
  std::uint64_t version_ = 0;
  std::vector<ChangeListener> listeners_;

  /// Flat CSR adjacency: neighbours of n are
  /// flat_neighbors_[flat_offsets_[n] .. flat_offsets_[n+1]).
  mutable std::vector<std::uint32_t> flat_offsets_;
  mutable std::vector<NodeId> flat_neighbors_;
  mutable std::uint64_t flat_version_ = ~std::uint64_t{0};

  /// Reusable BFS state: visit_stamp_[i] == visit_epoch_ means "seen in the
  /// current traversal" — no per-call allocation, no clearing between
  /// traversals (the Reconfigurator repair path calls path/component_of
  /// repeatedly; per-call vectors showed up at N >= 10k).
  mutable std::vector<std::uint32_t> visit_stamp_;
  mutable std::uint32_t visit_epoch_ = 0;
  mutable std::vector<NodeId> bfs_queue_;
  mutable std::vector<NodeId> bfs_parent_;
};

}  // namespace epicast
