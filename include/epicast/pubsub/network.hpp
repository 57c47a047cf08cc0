// epicast — the assembled dispatching network.
//
// Owns one Dispatcher per topology node — each running on the Simulator
// as its runtime, or on its shard lane's ShardRuntime under the sharded
// engine — wires them to the transport, and provides the two pieces of
// global machinery the simulation needs:
//
//  * route rebuilding after a topological reconfiguration — the converged
//    outcome of the reconfiguration protocol of paper ref [7] (see
//    DESIGN.md, substitution table);
//  * a consistency oracle that recomputes, from global knowledge, what every
//    subscription table must contain on the current tree — used by tests to
//    verify that the distributed subscription-forwarding protocol and the
//    rebuild produce identical state.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "epicast/net/topology.hpp"
#include "epicast/net/transport.hpp"
#include "epicast/pubsub/dispatcher.hpp"
#include "epicast/sim/simulator.hpp"

namespace epicast {

class PubSubNetwork {
 public:
  /// Creates one dispatcher per node of `transport.topology()`, each
  /// running on `transport.simulator()` as its runtime; the network itself
  /// keeps direct access to the transport — it is sim-side machinery
  /// (oracle rebuilds, global consistency checks), not protocol code.
  PubSubNetwork(Transport& transport, DispatcherConfig dispatcher_config);

  /// Picks the runtime a given node's dispatcher runs on — the sharded
  /// engine maps each node to its shard-lane ShardRuntime. Returned
  /// references must outlive this network.
  using RuntimeProvider = std::function<runtime::Runtime&(NodeId)>;

  /// As above, but each dispatcher runs on `per_node(its id)` instead of
  /// on the Simulator. Dispatchers are still constructed in node order, so
  /// RNG fork order is unchanged.
  PubSubNetwork(Transport& transport, DispatcherConfig dispatcher_config,
                const RuntimeProvider& per_node);

  PubSubNetwork(const PubSubNetwork&) = delete;
  PubSubNetwork& operator=(const PubSubNetwork&) = delete;

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] Dispatcher& node(NodeId id);
  [[nodiscard]] const Dispatcher& node(NodeId id) const;

  /// Applies `fn` to every dispatcher.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (auto& d : nodes_) fn(*d);
  }

  /// Installs the same delivery listener on every dispatcher.
  void set_delivery_listener(Dispatcher::DeliveryListener listener);

  /// Rebuilds every subscription table from local subscriptions and the
  /// *current* topology: clears all routes, then installs, for every
  /// (subscriber, pattern), the reverse-path entries along the tree; also
  /// reconstructs the duplicate-suppression state so later dynamic
  /// (un)subscriptions keep working. Call after a reconfiguration repair.
  void rebuild_routes();

  /// Switches reconfiguration handling to the *distributed* protocol (in
  /// the spirit of paper ref [7]): from now on, every topology change
  /// triggers message-level retraction and re-advertisement at the two
  /// endpoints, and the tables converge through ordinary subscription
  /// forwarding instead of an oracle rebuild. Call at most once.
  void enable_protocol_reconfiguration();

  /// True if every table matches the oracle computed from global knowledge.
  [[nodiscard]] bool routes_consistent() const;

  /// The dispatchers (with a local subscription) that an event with the
  /// given content would reach on a fully reliable network — the
  /// denominator of the paper's delivery rate.
  [[nodiscard]] std::vector<NodeId> expected_receivers(
      const std::vector<Pattern>& content) const;

  /// Number of distinct local subscribers of pattern `p`.
  [[nodiscard]] std::size_t subscriber_count(Pattern p) const;

 private:
  /// The route entries each node must hold, as one pattern bitmask per
  /// next-hop neighbour (entries sorted by NodeId) — mirrors the
  /// SubscriptionTable layout. The old (pattern, next_hop)-pair lists were
  /// O(N · subscribers · π_max) pairs and dominated memory at N = 10⁴;
  /// the mask form is O(E · Π/8) bytes total.
  struct OracleEntry {
    NodeId next_hop;
    PatternSet patterns;
  };
  using Oracle = std::vector<std::vector<OracleEntry>>;
  [[nodiscard]] Oracle compute_oracle() const;

  Transport& transport_;
  std::vector<std::unique_ptr<Dispatcher>> nodes_;
};

}  // namespace epicast
