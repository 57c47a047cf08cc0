#include "epicast/pubsub/network.hpp"

#include "epicast/common/assert.hpp"

namespace epicast {

PubSubNetwork::PubSubNetwork(Transport& transport,
                             DispatcherConfig dispatcher_config)
    : transport_(transport) {
  const std::uint32_t n = transport.topology().node_count();
  nodes_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    nodes_.push_back(std::make_unique<Dispatcher>(
        NodeId{i}, transport.simulator(), dispatcher_config));
  }
}

Dispatcher& PubSubNetwork::node(NodeId id) {
  EPICAST_ASSERT(id.valid() && id.value() < nodes_.size());
  return *nodes_[id.value()];
}

const Dispatcher& PubSubNetwork::node(NodeId id) const {
  EPICAST_ASSERT(id.valid() && id.value() < nodes_.size());
  return *nodes_[id.value()];
}

void PubSubNetwork::set_delivery_listener(
    Dispatcher::DeliveryListener listener) {
  for (auto& d : nodes_) d->set_delivery_listener(listener);
}

RoutingOracle PubSubNetwork::compute_oracle() const {
  std::vector<PatternSet> local(nodes_.size());
  for (std::size_t v = 0; v < nodes_.size(); ++v) {
    local[v] = nodes_[v]->table().local_mask();
  }
  return compute_routing_oracle(transport_.topology().csr(), local);
}

void PubSubNetwork::rebuild_routes() {
  const RoutingOracle oracle = compute_oracle();
  std::vector<Dispatcher*> here;
  here.reserve(nodes_.size());
  for (auto& d : nodes_) {
    d->table().clear_routes();
    d->clear_sub_sent();
    here.push_back(d.get());
  }
  install_oracle_routes(oracle, here);
}

void PubSubNetwork::enable_protocol_reconfiguration() {
  transport_.topology().add_change_listener(
      [this](const Link& link, bool added) {
        if (added) {
          node(link.a).handle_link_add(link.b);
          node(link.b).handle_link_add(link.a);
        } else {
          node(link.a).handle_link_break(link.b);
          node(link.b).handle_link_break(link.a);
        }
      });
}

bool PubSubNetwork::routes_consistent() const {
  const RoutingOracle oracle = compute_oracle();
  std::vector<Pattern> patterns;
  std::vector<NodeId> hops;
  for (std::uint32_t v = 0; v < nodes_.size(); ++v) {
    const SubscriptionTable& table = nodes_[v]->table();
    // Every oracle (pattern, next-hop) bit must be present in the table...
    std::size_t expected_bits = 0;
    bool all_present = true;
    for (const RouteRow& row : oracle.rows_of(NodeId{v})) {
      expected_bits += row.patterns.count();
      row.patterns.for_each([&](Pattern p) {
        if (!table.has_route(p, row.next_hop)) all_present = false;
      });
    }
    if (!all_present) return false;
    // ...and the table must hold nothing beyond them: equal bit counts plus
    // full containment means equality.
    std::size_t actual_bits = 0;
    table.known_patterns_into(patterns);
    for (Pattern p : patterns) {
      table.route_targets_into(p, NodeId::invalid(), hops);
      actual_bits += hops.size();
    }
    if (actual_bits != expected_bits) return false;
  }
  return true;
}

}  // namespace epicast
