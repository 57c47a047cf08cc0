#include "epicast/pubsub/network.hpp"

#include <algorithm>
#include <deque>

#include "epicast/common/assert.hpp"

namespace epicast {

PubSubNetwork::PubSubNetwork(Transport& transport,
                             DispatcherConfig dispatcher_config)
    : PubSubNetwork(transport, dispatcher_config, RuntimeProvider{}) {}

PubSubNetwork::PubSubNetwork(Transport& transport,
                             DispatcherConfig dispatcher_config,
                             const RuntimeProvider& per_node)
    : transport_(transport) {
  const std::uint32_t n = transport.topology().node_count();
  nodes_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    runtime::Runtime& rt = per_node ? per_node(NodeId{i})
                                    : transport.simulator();
    nodes_.push_back(
        std::make_unique<Dispatcher>(NodeId{i}, rt, dispatcher_config));
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

PubSubNetwork::Oracle PubSubNetwork::compute_oracle() const {
  const Topology& topo = transport_.topology();
  Oracle oracle(nodes_.size());

  // One BFS per subscriber: every reachable node v must route the
  // subscriber's whole local pattern mask towards pred(v), its next hop on
  // the path back to the subscriber. Masks from different subscribers that
  // agree on the next hop merge into one entry, so the footprint is bounded
  // by the edges, not by the subscriber × pattern product.
  std::vector<NodeId> pred(nodes_.size());
  std::vector<bool> seen(nodes_.size());
  std::vector<NodeId> order;
  for (const auto& sub : nodes_) {
    const NodeId s = sub->id();
    const PatternSet& local = sub->table().local_mask();
    if (local.none()) continue;

    std::fill(seen.begin(), seen.end(), false);
    seen[s.value()] = true;
    std::deque<NodeId> frontier{s};
    order.clear();
    while (!frontier.empty()) {
      const NodeId cur = frontier.front();
      frontier.pop_front();
      for (NodeId nxt : topo.neighbors(cur)) {
        if (seen[nxt.value()]) continue;
        seen[nxt.value()] = true;
        pred[nxt.value()] = cur;
        order.push_back(nxt);
        frontier.push_back(nxt);
      }
    }
    for (NodeId v : order) {
      auto& entries = oracle[v.value()];
      const NodeId hop = pred[v.value()];
      auto it = std::lower_bound(
          entries.begin(), entries.end(), hop,
          [](const OracleEntry& e, NodeId n) { return e.next_hop < n; });
      if (it == entries.end() || it->next_hop != hop) {
        it = entries.insert(it, OracleEntry{hop, PatternSet{}});
      }
      it->patterns |= local;
    }
  }
  return oracle;
}

void PubSubNetwork::rebuild_routes() {
  const Oracle oracle = compute_oracle();
  for (auto& d : nodes_) {
    d->table().clear_routes();
    d->clear_sub_sent();
  }
  for (std::uint32_t v = 0; v < nodes_.size(); ++v) {
    for (const OracleEntry& entry : oracle[v]) {
      entry.patterns.for_each([&](Pattern p) {
        nodes_[v]->table().add_route(p, entry.next_hop);
        // v holding a route (p → next_hop) means a subscriber lives on
        // next_hop's far side, i.e. next_hop's flood of sub(p) crossed the
        // link towards v — reconstruct that duplicate-suppression fact.
        nodes_[entry.next_hop.value()]->note_sub_sent(p, NodeId{v});
      });
    }
  }
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
  const Oracle oracle = compute_oracle();
  std::vector<Pattern> patterns;
  std::vector<NodeId> hops;
  for (std::uint32_t v = 0; v < nodes_.size(); ++v) {
    const SubscriptionTable& table = nodes_[v]->table();
    // Every oracle (pattern, next-hop) bit must be present in the table...
    std::size_t expected_bits = 0;
    bool all_present = true;
    for (const OracleEntry& entry : oracle[v]) {
      expected_bits += entry.patterns.count();
      entry.patterns.for_each([&](Pattern p) {
        if (!table.has_route(p, entry.next_hop)) all_present = false;
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

std::vector<NodeId> PubSubNetwork::expected_receivers(
    const std::vector<Pattern>& content) const {
  std::vector<NodeId> out;
  for (const auto& d : nodes_) {
    const auto& table = d->table();
    if (std::any_of(content.begin(), content.end(),
                    [&](Pattern p) { return table.has_local(p); })) {
      out.push_back(d->id());
    }
  }
  return out;
}

std::size_t PubSubNetwork::subscriber_count(Pattern p) const {
  std::size_t n = 0;
  for (const auto& d : nodes_) {
    if (d->table().has_local(p)) ++n;
  }
  return n;
}

}  // namespace epicast
