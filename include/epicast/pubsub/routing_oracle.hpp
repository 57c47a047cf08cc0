// epicast — the routing oracle: the converged subscription tables of a whole
// overlay, computed from global knowledge.
//
// Subscription forwarding (paper §II) floods sub(p) from every subscriber,
// and every node ends up routing p towards the neighbour the flood reached
// it from. On a tree that neighbour is unique. On a cyclic overlay it
// depends on message timing, so the oracle fixes one rule, which pins every
// table it produces: a FIFO breadth-first search from each subscriber,
// visiting neighbours in adjacency order, in which the first node to
// discover v becomes v's next hop for the subscriber's whole local pattern
// mask.
//
// This is the only implementation of that rule, and install_oracle_routes()
// the only one of turning its rows into dispatcher state. The simulator
// installs it through PubSubNetwork (Oracle bootstrap, route repairs, fault
// heals and the routes_consistent() check); every NodeDaemon computes it
// from the shared cluster config and installs its own node's share.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "epicast/common/ids.hpp"
#include "epicast/common/pattern_set.hpp"
#include "epicast/net/topology.hpp"

namespace epicast {

class Dispatcher;

/// One routing-table row: the patterns a node routes towards `next_hop`.
struct RouteRow {
  NodeId next_hop;
  PatternSet patterns;
};

/// The rows of every node, flat: node v's rows are
/// rows[offsets[v] .. offsets[v+1]), sorted by next hop.
struct RoutingOracle {
  std::vector<std::uint32_t> offsets;
  std::vector<RouteRow> rows;

  [[nodiscard]] std::span<const RouteRow> rows_of(NodeId v) const {
    return std::span<const RouteRow>(rows).subspan(
        offsets[v.value()], offsets[v.value() + 1] - offsets[v.value()]);
  }
};

/// Computes the oracle over `adjacency` for the per-node local subscription
/// masks `local` (one per node; an empty mask means no subscriber there).
/// One BFS per subscriber, over a stamp array and a flat queue; each
/// subscriber's mask is ORed into a row per directed edge, which is emitted
/// as the row of the discovered node towards its discoverer.
[[nodiscard]] RoutingOracle compute_routing_oracle(
    CsrAdjacency adjacency, std::span<const PatternSet> local);

/// Installs `oracle` into the dispatchers that live in this process, in one
/// pass over its rows: `here[v]` is node v's dispatcher, or nullptr when v
/// runs elsewhere. Node v's rows become its routes; a row of v towards
/// next hop u also means u's flood of sub(p) crossed the link towards v,
/// which u notes as duplicate-suppression state (Dispatcher::note_sub_sent)
/// so later dynamic (un)subscriptions keep working. Adds to whatever the
/// tables hold, so callers start from cleared ones.
void install_oracle_routes(const RoutingOracle& oracle,
                           std::span<Dispatcher* const> here);

}  // namespace epicast
