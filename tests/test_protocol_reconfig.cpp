// Tests for the distributed reconfiguration protocol (ref [7] spirit):
// message-level retraction and re-advertisement must converge to exactly
// the tables the global oracle predicts, across random churn histories.
#include <gtest/gtest.h>

#include "epicast/net/reconfigurator.hpp"
#include "epicast/pubsub/network.hpp"
#include "epicast/pubsub/pattern.hpp"
#include "epicast/scenario/runner.hpp"

namespace epicast {
namespace {

TransportConfig lossless() {
  TransportConfig c;
  c.link.loss_rate = 0.0;
  return c;
}

struct ProtocolRig {
  explicit ProtocolRig(std::uint64_t seed, std::uint32_t nodes = 30)
      : sim(seed),
        topo_rng(sim.fork_rng()),
        topo(Topology::random_tree(nodes, 4, topo_rng)),
        transport(sim, topo, lossless()),
        net(transport, DispatcherConfig{}) {}

  void subscribe_random(std::uint32_t per_node, std::uint32_t universe) {
    PatternUniverse u(universe);
    Rng rng = sim.fork_rng();
    for (std::uint32_t i = 0; i < net.size(); ++i) {
      for (Pattern p : u.sample_distinct(per_node, rng)) {
        net.node(NodeId{i}).subscribe(p);
      }
    }
    settle();
  }
  void settle() { sim.run_until(sim.now() + Duration::seconds(1.0)); }

  Simulator sim;
  Rng topo_rng;
  Topology topo;
  Transport transport;
  PubSubNetwork net;
};

TEST(ProtocolReconfig, BreakRetractsStaleRoutes) {
  // Line 0-1-2-3; 3 subscribes. Breaking 2-3 must retract pattern routes
  // all the way back to 0.
  Simulator sim(1);
  Topology topo = Topology::line(4);
  Transport transport(sim, topo, lossless());
  PubSubNetwork net(transport, DispatcherConfig{});
  net.enable_protocol_reconfiguration();

  net.node(NodeId{3}).subscribe(Pattern{1});
  sim.run_until(SimTime::seconds(0.5));
  ASSERT_TRUE(net.node(NodeId{0}).table().knows(Pattern{1}));

  topo.remove_link(NodeId{2}, NodeId{3});
  sim.run_until(SimTime::seconds(1.0));
  EXPECT_FALSE(net.node(NodeId{0}).table().knows(Pattern{1}));
  EXPECT_FALSE(net.node(NodeId{1}).table().knows(Pattern{1}));
  EXPECT_FALSE(net.node(NodeId{2}).table().knows(Pattern{1}));
  EXPECT_TRUE(net.node(NodeId{3}).table().has_local(Pattern{1}));
  EXPECT_TRUE(net.routes_consistent());
}

TEST(ProtocolReconfig, RejoinReadvertisesAcrossNewLink) {
  Simulator sim(2);
  Topology topo = Topology::line(4);
  Transport transport(sim, topo, lossless());
  PubSubNetwork net(transport, DispatcherConfig{});
  net.enable_protocol_reconfiguration();

  net.node(NodeId{3}).subscribe(Pattern{1});
  net.node(NodeId{0}).subscribe(Pattern{2});
  sim.run_until(SimTime::seconds(0.5));

  // Detach node 3 and re-attach it to node 0 instead.
  topo.remove_link(NodeId{2}, NodeId{3});
  sim.run_until(sim.now() + Duration::seconds(0.5));
  topo.add_link(NodeId{0}, NodeId{3});
  sim.run_until(sim.now() + Duration::seconds(1.0));

  EXPECT_TRUE(net.routes_consistent());
  // Events flow along the new shape in both directions.
  int deliveries = 0;
  net.set_delivery_listener(
      [&](NodeId, const EventPtr&, bool) { ++deliveries; });
  net.node(NodeId{2}).publish({Pattern{1}});  // 2 → 1 → 0 → 3
  net.node(NodeId{3}).publish({Pattern{2}});  // 3 → 0
  sim.run_until(sim.now() + Duration::seconds(0.5));
  EXPECT_EQ(deliveries, 2);
}

TEST(ProtocolReconfig, SubscribeDuringPartitionPropagatesAfterRejoin) {
  // A subscription issued while the overlay is split can only flood its own
  // component; the new-link advertisement must carry it across once the
  // partition heals.
  Simulator sim(3);
  Topology topo = Topology::line(4);
  Transport transport(sim, topo, lossless());
  PubSubNetwork net(transport, DispatcherConfig{});
  net.enable_protocol_reconfiguration();

  topo.remove_link(NodeId{1}, NodeId{2});
  sim.run_until(SimTime::seconds(0.2));

  net.node(NodeId{3}).subscribe(Pattern{5});  // floods only {2, 3}
  sim.run_until(SimTime::seconds(0.7));
  EXPECT_TRUE(net.node(NodeId{2}).table().knows(Pattern{5}));
  EXPECT_FALSE(net.node(NodeId{0}).table().knows(Pattern{5}));

  topo.add_link(NodeId{1}, NodeId{2});
  sim.run_until(SimTime::seconds(1.5));
  EXPECT_TRUE(net.routes_consistent());
  EXPECT_TRUE(net.node(NodeId{0}).table().has_route(Pattern{5}, NodeId{1}));

  int deliveries = 0;
  net.set_delivery_listener(
      [&](NodeId node, const EventPtr&, bool) {
        EXPECT_EQ(node, NodeId{3});
        ++deliveries;
      });
  net.node(NodeId{0}).publish({Pattern{5}});
  sim.run_until(sim.now() + Duration::seconds(0.5));
  EXPECT_EQ(deliveries, 1);
}

TEST(ProtocolReconfig, UnsubscribeDuringPartitionAlsoConverges) {
  Simulator sim(4);
  Topology topo = Topology::line(4);
  Transport transport(sim, topo, lossless());
  PubSubNetwork net(transport, DispatcherConfig{});
  net.enable_protocol_reconfiguration();

  net.node(NodeId{3}).subscribe(Pattern{5});
  sim.run_until(SimTime::seconds(0.5));
  ASSERT_TRUE(net.node(NodeId{0}).table().knows(Pattern{5}));

  topo.remove_link(NodeId{1}, NodeId{2});
  sim.run_until(sim.now() + Duration::seconds(0.3));
  // The break already retracted the route on the far side.
  EXPECT_FALSE(net.node(NodeId{0}).table().knows(Pattern{5}));

  net.node(NodeId{3}).unsubscribe(Pattern{5});  // retracts within {2, 3}
  sim.run_until(sim.now() + Duration::seconds(0.3));
  topo.add_link(NodeId{1}, NodeId{2});
  sim.run_until(sim.now() + Duration::seconds(1.0));

  EXPECT_TRUE(net.routes_consistent());
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(net.node(NodeId{i}).table().knows(Pattern{5})) << i;
  }
}

class ProtocolChurnProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ProtocolChurnProperty, ConvergesToOracleAfterEveryRepair) {
  ProtocolRig rig(GetParam());
  rig.net.enable_protocol_reconfiguration();
  rig.subscribe_random(3, 12);
  ASSERT_TRUE(rig.net.routes_consistent());

  ReconfigConfig rc;
  rc.repair_time = Duration::millis(100);
  Reconfigurator rec(rig.sim, rig.topo, rc);
  for (int round = 0; round < 8; ++round) {
    rec.force_reconfiguration();
    rig.settle();  // repair lands + control floods drain
    ASSERT_TRUE(rig.topo.is_tree());
    ASSERT_TRUE(rig.net.routes_consistent())
        << "seed " << GetParam() << " round " << round;
  }
}

TEST_P(ProtocolChurnProperty, SurvivesOverlappingChurnBursts) {
  ProtocolRig rig(GetParam() ^ 0xfeed);
  rig.net.enable_protocol_reconfiguration();
  rig.subscribe_random(2, 8);

  ReconfigConfig rc;
  rc.interval = Duration::millis(40);  // overlapping with 100 ms repair
  rc.repair_time = Duration::millis(100);
  rc.stop_at = rig.sim.now() + Duration::seconds(1.5);
  Reconfigurator rec(rig.sim, rig.topo, rc);
  rec.start();
  rig.sim.run_until(rig.sim.now() + Duration::seconds(4.0));

  ASSERT_TRUE(rig.topo.is_tree());
  EXPECT_TRUE(rig.net.routes_consistent()) << "seed " << (GetParam() ^ 0xfeed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolChurnProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(ProtocolReconfig, ScenarioRunsEndToEnd) {
  ScenarioConfig cfg = ScenarioConfig::paper_defaults(Algorithm::CombinedPull);
  cfg.nodes = 30;
  cfg.seed = 5;
  cfg.link_error_rate = 0.0;
  cfg.reconfiguration_interval = Duration::millis(200);
  cfg.route_repair = ScenarioConfig::RouteRepair::Protocol;
  cfg.warmup = Duration::seconds(1.0);
  cfg.measure = Duration::seconds(2.0);
  const ScenarioResult r = run_scenario(cfg);
  EXPECT_GT(r.reconfig_breaks, 5u);
  EXPECT_GT(r.delivery_rate, 0.85);  // recovery masks the longer repairs
  EXPECT_GT(r.traffic.sends_of(MessageClass::Control), 0u);
}

TEST(ProtocolReconfig, ProtocolRepairIsSlowerThanOracle) {
  // The distributed repair needs control-message round trips, so its
  // delivery under churn cannot beat the instantaneous oracle repair.
  ScenarioConfig cfg = ScenarioConfig::paper_defaults(Algorithm::NoRecovery);
  cfg.nodes = 30;
  cfg.seed = 9;
  cfg.link_error_rate = 0.0;
  cfg.reconfiguration_interval = Duration::millis(150);
  cfg.warmup = Duration::seconds(1.0);
  cfg.measure = Duration::seconds(2.0);
  const ScenarioResult oracle = run_scenario(cfg);
  cfg.route_repair = ScenarioConfig::RouteRepair::Protocol;
  const ScenarioResult protocol = run_scenario(cfg);
  EXPECT_LE(protocol.delivery_rate, oracle.delivery_rate + 0.01);
}

}  // namespace
}  // namespace epicast
