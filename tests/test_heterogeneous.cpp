// Heterogeneous-deployment tests: a dispatching network where nodes run
// *different* recovery algorithms (the realistic rolling-upgrade case).
// Foreign digests must be tolerated and, where possible, served.
#include <gtest/gtest.h>

#include "epicast/gossip/pull.hpp"
#include "epicast/metrics/message_stats.hpp"
#include "epicast/net/topology.hpp"
#include "epicast/pubsub/network.hpp"
#include "epicast/sim/simulator.hpp"

namespace epicast {
namespace {

struct MixedRig {
  // Line 0 — 1 — 2 with per-node algorithm choice.
  explicit MixedRig(std::vector<Algorithm> algorithms, std::uint64_t seed = 1)
      : sim(seed),
        topo(Topology::line(static_cast<std::uint32_t>(algorithms.size()))),
        transport(sim, topo, lossless()),
        net(transport, dispatcher_config()) {
    transport.add_observer(stats);
    for (std::uint32_t i = 0; i < algorithms.size(); ++i) {
      auto& d = net.node(NodeId{i});
      d.set_recovery(make_recovery(algorithms[i], d, gossip_config()));
    }
    net.set_delivery_listener(
        [this](NodeId node, const EventPtr& e, bool recovered) {
          if (recovered) recovered_at.emplace_back(node, e->id());
        });
  }

  static TransportConfig lossless() {
    TransportConfig c;
    c.link.loss_rate = 0.0;
    c.direct_loss_rate = 0.0;
    return c;
  }
  static DispatcherConfig dispatcher_config() {
    DispatcherConfig dc;
    dc.record_routes = true;  // superset: publisher variants may be present
    return dc;
  }
  static GossipConfig gossip_config() {
    GossipConfig g;
    g.interval = Duration::millis(30);
    g.buffer_size = 64;
    return g;
  }

  void settle_subscriptions(
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& subs) {
    for (auto [node, pattern] : subs) {
      net.node(NodeId{node}).subscribe(Pattern{pattern});
    }
    run(0.5);
  }
  void start() {
    net.for_each([](Dispatcher& d) { d.recovery()->start(); });
  }
  void run(double s) { sim.run_until(sim.now() + Duration::seconds(s)); }

  bool recovered(std::uint32_t node, const EventId& id) const {
    for (const auto& [n, e] : recovered_at) {
      if (n == NodeId{node} && e == id) return true;
    }
    return false;
  }

  /// Publishes from node 0: a baseline event, a dropped event (on 1→2),
  /// and a revealer. Returns the dropped event's id.
  EventId gap_at_two() {
    auto& pub = net.node(NodeId{0});
    (void)pub.publish({Pattern{1}});
    run(0.1);
    const EventPtr lost = pub.publish({Pattern{1}});
    transport.add_fault_filter(
        [id = lost->id()](NodeId from, NodeId to, const Message& m, bool) {
          if (m.message_class() != MessageClass::Event) return true;
          const auto& em = static_cast<const EventMessage&>(m);
          return !(from == NodeId{1} && to == NodeId{2} &&
                   em.event()->id() == id);
        });
    run(0.1);
    (void)pub.publish({Pattern{1}});
    run(0.1);
    return lost->id();
  }

  Simulator sim;
  Topology topo;
  Transport transport;
  MessageStats stats{8};
  PubSubNetwork net;
  std::vector<std::pair<NodeId, EventId>> recovered_at;
};

TEST(Heterogeneous, PullNodeRecoversThroughPushNeighbours) {
  // Subscriber (node 2) runs combined pull; everyone else runs push. The
  // pull digest travelling towards node 0 must be served by push nodes.
  MixedRig rig({Algorithm::Push, Algorithm::Push, Algorithm::CombinedPull});
  rig.settle_subscriptions({{0, 1}, {2, 1}});
  rig.start();
  const EventId lost = rig.gap_at_two();
  rig.run(2.0);
  EXPECT_TRUE(rig.recovered(2, lost));
}

TEST(Heterogeneous, PushNodeStillServesAndPullNodeAnswersDigests) {
  // Subscriber (node 2) runs push; node 0 runs subscriber pull. Push
  // digests from node 0's side reach node 2, which requests the missing
  // event — and the pull node serves the request from its cache.
  MixedRig rig(
      {Algorithm::SubscriberPull, Algorithm::SubscriberPull, Algorithm::Push});
  rig.settle_subscriptions({{0, 1}, {2, 1}});
  rig.start();
  (void)rig.gap_at_two();
  rig.run(2.0);
  // Recovery path: node 2 (push) never originates pull digests, but node
  // 0's push-tolerant serving plus node 2's reaction to any received push
  // digest can fill the gap. At minimum the network must not crash and the
  // event must not be double-delivered anywhere.
  EXPECT_LE(rig.net.node(NodeId{2}).stats().delivered, 3u);
}

TEST(Heterogeneous, MixedPullVariantsInteroperate) {
  MixedRig rig({Algorithm::PublisherPull, Algorithm::RandomPull,
                Algorithm::SubscriberPull, Algorithm::CombinedPull});
  rig.settle_subscriptions({{0, 1}, {3, 1}});
  rig.start();

  auto& pub = rig.net.node(NodeId{0});
  (void)pub.publish({Pattern{1}});
  rig.run(0.1);
  const EventPtr lost = pub.publish({Pattern{1}});
  rig.transport.add_fault_filter(
      [id = lost->id()](NodeId from, NodeId to, const Message& m, bool) {
        if (m.message_class() != MessageClass::Event) return true;
        const auto& em = static_cast<const EventMessage&>(m);
        return !(from == NodeId{2} && to == NodeId{3} &&
                 em.event()->id() == id);
      });
  rig.run(0.1);
  (void)pub.publish({Pattern{1}});
  rig.run(3.0);
  EXPECT_TRUE(rig.recovered(3, lost->id()));
}

TEST(Heterogeneous, ForeignDigestsDoNotCrashAnyPairing) {
  // Smoke across all ordered pairs of algorithms on a 3-node line with a
  // gap at the subscriber: nothing may abort, deliveries stay single.
  const std::vector<Algorithm> algos = {
      Algorithm::Push, Algorithm::SubscriberPull, Algorithm::PublisherPull,
      Algorithm::CombinedPull, Algorithm::RandomPull};
  for (Algorithm a : algos) {
    for (Algorithm b : algos) {
      MixedRig rig({a, a, b});
      rig.settle_subscriptions({{0, 1}, {2, 1}});
      rig.start();
      (void)rig.gap_at_two();
      rig.run(1.0);
      ASSERT_LE(rig.net.node(NodeId{2}).stats().delivered, 3u)
          << to_string(a) << "+" << to_string(b);
    }
  }
}

}  // namespace
}  // namespace epicast
