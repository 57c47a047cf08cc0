// Tests for PubSubNetwork: the routing oracle, protocol-vs-oracle
// equivalence on random topologies (property test), route rebuilding after
// reconfigurations, and expected-receiver computation.
#include "epicast/pubsub/network.hpp"

#include <gtest/gtest.h>

#include "epicast/net/reconfigurator.hpp"
#include "epicast/pubsub/pattern.hpp"

namespace epicast {
namespace {

TransportConfig lossless() {
  TransportConfig c;
  c.link.loss_rate = 0.0;
  return c;
}

class SubscriptionForwardingProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SubscriptionForwardingProperty, ProtocolMatchesOracleOnRandomTrees) {
  // On a random tree with random subscriptions, the distributed
  // subscription-forwarding protocol must produce exactly the tables the
  // global oracle predicts.
  Simulator sim(GetParam());
  Rng topo_rng = sim.fork_rng();
  Topology topo = Topology::random_tree(40, 4, topo_rng);
  Transport transport(sim, topo, lossless());
  PubSubNetwork net(transport, DispatcherConfig{});

  PatternUniverse universe(20);
  Rng rng = sim.fork_rng();
  for (std::uint32_t i = 0; i < 40; ++i) {
    for (Pattern p : universe.sample_distinct(3, rng)) {
      net.node(NodeId{i}).subscribe(p);
    }
  }
  sim.run_until(SimTime::seconds(1.0));
  EXPECT_TRUE(net.routes_consistent());
}

TEST_P(SubscriptionForwardingProperty, RebuildReproducesProtocolState) {
  // rebuild_routes() (used after reconfigurations) must land in the same
  // state the protocol itself produces — including the suppression state,
  // which we probe by doing more (un)subscriptions afterwards.
  Simulator sim(GetParam() ^ 0xabcd);
  Rng topo_rng = sim.fork_rng();
  Topology topo = Topology::random_tree(30, 4, topo_rng);
  Transport transport(sim, topo, lossless());
  PubSubNetwork net(transport, DispatcherConfig{});

  PatternUniverse universe(10);
  Rng rng = sim.fork_rng();
  for (std::uint32_t i = 0; i < 30; ++i) {
    for (Pattern p : universe.sample_distinct(2, rng)) {
      net.node(NodeId{i}).subscribe(p);
    }
  }
  sim.run_until(SimTime::seconds(1.0));
  ASSERT_TRUE(net.routes_consistent());

  net.rebuild_routes();
  EXPECT_TRUE(net.routes_consistent());

  // Dynamic behaviour still correct after a rebuild.
  net.node(NodeId{7}).subscribe(universe.at(9));
  net.node(NodeId{3}).unsubscribe(universe.at(0));
  sim.run_until(sim.now() + Duration::seconds(1.0));
  EXPECT_TRUE(net.routes_consistent());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubscriptionForwardingProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(PubSubNetwork, RebuildAfterReconfigurationRestoresDelivery) {
  Simulator sim(5);
  Rng topo_rng = sim.fork_rng();
  Topology topo = Topology::random_tree(25, 4, topo_rng);
  Transport transport(sim, topo, lossless());
  PubSubNetwork net(transport, DispatcherConfig{});

  net.node(NodeId{24}).subscribe(Pattern{1});
  sim.run_until(SimTime::seconds(0.5));
  ASSERT_TRUE(net.routes_consistent());

  ReconfigConfig rc;
  rc.repair_time = Duration::millis(100);
  Reconfigurator rec(sim, topo, rc);
  rec.set_repair_listener(
      [&net](const Reconfigurator::Repair&) { net.rebuild_routes(); });
  for (int i = 0; i < 5; ++i) {
    rec.force_reconfiguration();
    sim.run_until(sim.now() + Duration::seconds(0.5));
    ASSERT_TRUE(topo.is_tree());
    ASSERT_TRUE(net.routes_consistent()) << "after reconfiguration " << i;
  }

  // Events still reach the subscriber on the reshaped tree.
  int deliveries = 0;
  net.set_delivery_listener(
      [&](NodeId node, const EventPtr&, bool) {
        EXPECT_EQ(node, NodeId{24});
        ++deliveries;
      });
  net.node(NodeId{0}).publish({Pattern{1}});
  sim.run_until(sim.now() + Duration::seconds(0.5));
  EXPECT_EQ(deliveries, 1);
}

TEST(PubSubNetwork, ForEachVisitsAllNodes) {
  Simulator sim(2);
  Topology topo = Topology::line(7);
  Transport transport(sim, topo, lossless());
  PubSubNetwork net(transport, DispatcherConfig{});
  int count = 0;
  net.for_each([&](Dispatcher& d) {
    EXPECT_EQ(d.id().value(), static_cast<std::uint32_t>(count));
    ++count;
  });
  EXPECT_EQ(count, 7);
  EXPECT_EQ(net.size(), 7u);
}

}  // namespace
}  // namespace epicast
