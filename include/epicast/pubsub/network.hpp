// epicast — the assembled dispatching network.
//
// Owns one Dispatcher per topology node — each running on the Simulator
// as its runtime — wires them to the transport, and provides the two
// pieces of global machinery the simulation needs:
//
//  * route rebuilding after a topological reconfiguration — the converged
//    outcome of the reconfiguration protocol of paper ref [7] (see
//    DESIGN.md, substitution table);
//  * a consistency oracle that recomputes, from global knowledge, what every
//    subscription table must contain on the current overlay — used by tests
//    to verify that the distributed subscription-forwarding protocol and
//    the rebuild produce identical state.
//
// Both go through compute_routing_oracle (pubsub/routing_oracle.hpp), the
// one routing oracle the simulator and the daemon share. Its tie-break
// pins the tables on cyclic overlays: a FIFO BFS from each subscriber over
// the topology's neighbour order, in which the first discoverer of a node
// becomes its next hop.
#pragma once

#include <memory>
#include <vector>

#include "epicast/net/topology.hpp"
#include "epicast/net/transport.hpp"
#include "epicast/pubsub/dispatcher.hpp"
#include "epicast/pubsub/routing_oracle.hpp"
#include "epicast/sim/simulator.hpp"

namespace epicast {

class PubSubNetwork {
 public:
  /// Creates one dispatcher per node of `transport.topology()`, each
  /// running on `transport.simulator()` as its runtime; the network itself
  /// keeps direct access to the transport — it is sim-side machinery
  /// (oracle rebuilds, global consistency checks), not protocol code.
  PubSubNetwork(Transport& transport, DispatcherConfig dispatcher_config);

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
  /// *current* topology: clears all routes, then installs the routing
  /// oracle's rows, one pattern mask per (node, next hop); also
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

 private:
  /// The routing oracle over the current topology and local masks.
  [[nodiscard]] RoutingOracle compute_oracle() const;

  Transport& transport_;
  std::vector<std::unique_ptr<Dispatcher>> nodes_;
};

}  // namespace epicast
