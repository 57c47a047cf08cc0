// Shared harness for recovery-protocol tests: a small lossless line network
// with per-link fault injection, so individual event messages can be dropped
// deterministically and the recovery observed.
#pragma once

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "epicast/gossip/protocol.hpp"
#include "epicast/metrics/message_stats.hpp"
#include "epicast/net/topology.hpp"
#include "epicast/net/transport.hpp"
#include "epicast/pubsub/network.hpp"
#include "epicast/sim/simulator.hpp"

namespace epicast::testing {

class GossipHarness {
 public:
  /// A line of `nodes` dispatchers with reliable links and the given
  /// algorithm attached (but not yet started) on every node.
  GossipHarness(std::uint32_t nodes, Algorithm algorithm,
                GossipConfig gossip = default_gossip())
      : sim_(1),
        topo_(Topology::line(nodes)),
        transport_(sim_, topo_, lossless()),
        stats_(nodes),
        net_(transport_, dispatcher_config(algorithm)) {
    transport_.add_observer(stats_);
    // One composable filter installed up front; the drop_* mutators only
    // edit the rule sets it consults.
    transport_.add_fault_filter(
        [this](NodeId from, NodeId to, const Message& msg, bool /*overlay*/) {
          if (msg.message_class() != MessageClass::Event) return true;
          if (dropped_links_.contains({from, to})) return false;
          const auto& em = static_cast<const EventMessage&>(msg);
          return !dropped_.contains(DropRule{from, to, em.event()->id()});
        });
    net_.for_each([&](Dispatcher& d) {
      d.set_recovery(make_recovery(algorithm, d, gossip));
    });
    net_.set_delivery_listener(
        [this](NodeId node, const EventPtr& e, bool recovered) {
          deliveries_.emplace_back(node, e->id());
          if (recovered) recovered_.emplace_back(node, e->id());
        });
  }

  static GossipConfig default_gossip() {
    GossipConfig g;
    g.interval = Duration::millis(30);
    g.buffer_size = 64;
    g.forward_probability = 0.5;
    return g;
  }

  static TransportConfig lossless() {
    TransportConfig c;
    c.link.loss_rate = 0.0;
    c.direct_loss_rate = 0.0;
    return c;
  }

  static DispatcherConfig dispatcher_config(Algorithm algorithm) {
    DispatcherConfig dc;
    dc.record_routes = algorithm_needs_routes(algorithm);
    return dc;
  }

  void subscribe_and_settle(
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& subs) {
    for (auto [node, pattern] : subs) {
      net_.node(NodeId{node}).subscribe(Pattern{pattern});
    }
    run_for(0.5);
  }

  void start_recovery() {
    net_.for_each([](Dispatcher& d) { d.recovery()->start(); });
  }

  /// Drops event messages carrying `id` on the directed link from→to.
  void drop_event_on_link(NodeId from, NodeId to, EventId id) {
    dropped_.insert(DropRule{from, to, id});
  }

  /// Drops every event message on the directed link from→to.
  void drop_all_events_on_link(NodeId from, NodeId to) {
    dropped_links_.insert({from, to});
  }

  void clear_drops() {
    dropped_.clear();
    dropped_links_.clear();
  }

  void run_for(double seconds) {
    sim_.run_until(sim_.now() + Duration::seconds(seconds));
  }

  [[nodiscard]] bool delivered(std::uint32_t node, const EventId& id) const {
    for (const auto& [n, e] : deliveries_) {
      if (n == NodeId{node} && e == id) return true;
    }
    return false;
  }
  [[nodiscard]] bool recovered(std::uint32_t node, const EventId& id) const {
    for (const auto& [n, e] : recovered_) {
      if (n == NodeId{node} && e == id) return true;
    }
    return false;
  }

  [[nodiscard]] GossipProtocolBase* protocol(std::uint32_t node) {
    return dynamic_cast<GossipProtocolBase*>(net_.node(NodeId{node}).recovery());
  }

  Simulator& sim() { return sim_; }
  PubSubNetwork& net() { return net_; }
  MessageStats& stats() { return stats_; }
  Topology& topology() { return topo_; }
  Transport& transport() { return transport_; }

 private:
  struct DropRule {
    NodeId from, to;
    EventId id;
    friend auto operator<=>(const DropRule&, const DropRule&) = default;
  };

  Simulator sim_;
  Topology topo_;
  Transport transport_;
  MessageStats stats_;
  PubSubNetwork net_;
  std::set<DropRule> dropped_;
  std::set<std::pair<NodeId, NodeId>> dropped_links_;
  std::vector<std::pair<NodeId, EventId>> deliveries_;
  std::vector<std::pair<NodeId, EventId>> recovered_;
};

}  // namespace epicast::testing
