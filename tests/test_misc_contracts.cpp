// Contract (death) tests and small edge cases across modules, plus a
// compile check of the umbrella header.
#include "epicast/epicast.hpp"

#include <gtest/gtest.h>

namespace epicast {
namespace {

TEST(Contracts, SchedulerRejectsPastAndNull) {
  Scheduler s;
  s.schedule_at(SimTime::seconds(1.0), [] {});
  s.run();
  EXPECT_DEATH(s.schedule_at(SimTime::seconds(0.5), [] {}), "past");
  EXPECT_DEATH(s.schedule_after(Duration::millis(-1), [] {}), "negative");
}

TEST(Contracts, CacheRejectsZeroCapacity) {
  EventRegistry registry;
  EXPECT_DEATH(EventCache(0, registry), "positive");
}

TEST(Contracts, FloodBootstrapNeedsATreeOverlay) {
  // On a cycle the subscription floods' outcome depends on arrival order,
  // so a cyclic overlay under the default flood bootstrap is rejected
  // before anything is simulated, naming the bootstrap that works there.
  ScenarioConfig cfg = ScenarioConfig::paper_defaults(Algorithm::CombinedPull);
  cfg.nodes = 60;
  cfg.warmup = Duration::seconds(0.3);
  cfg.measure = Duration::seconds(0.3);
  cfg.recovery_horizon = Duration::seconds(0.3);
  cfg.overlay = OverlayKind::BarabasiAlbert;
  cfg.overlay_degree = 4;
  EXPECT_DEATH((void)run_scenario(cfg), "--bootstrap=oracle");
  // The check reads the built overlay, not its kind: Barabási–Albert at
  // degree 3 attaches one link per node, which is a tree, and floods.
  cfg.overlay_degree = 3;
  EXPECT_GT(run_scenario(cfg).delivered_pairs, 0u);
  cfg.overlay_degree = 4;
  cfg.bootstrap = ScenarioConfig::SubscriptionBootstrap::Oracle;
  EXPECT_GT(run_scenario(cfg).delivered_pairs, 0u);
}

TEST(Contracts, RngRejectsZeroBound) {
  Rng rng(1);
  EXPECT_DEATH((void)rng.next_below(0), "positive bound");
}

TEST(Contracts, TransportRejectsSelfDirectSend) {
  Simulator sim(1);
  Topology topo = Topology::line(2);
  Transport transport(sim, topo, TransportConfig{});
  class Dummy final : public Message {
    MessageClass message_class() const override {
      return MessageClass::GossipReply;
    }
    std::size_t size_bytes() const override { return 1; }
  };
  EXPECT_DEATH(transport.send_direct(NodeId{0}, NodeId{0},
                                     std::make_shared<Dummy>()),
               "self");
}

TEST(Contracts, TransportRequiresAttachedReceiver) {
  Simulator sim(1);
  Topology topo = Topology::line(2);
  Transport transport(sim, topo, TransportConfig{});
  class Dummy final : public Message {
    MessageClass message_class() const override {
      return MessageClass::Event;
    }
    std::size_t size_bytes() const override { return 1; }
  };
  transport.send_overlay(NodeId{0}, NodeId{1}, std::make_shared<Dummy>());
  EXPECT_DEATH(sim.run(), "no receiver");
}

TEST(Contracts, DoubleAttachIsRejected) {
  Simulator sim(1);
  Topology topo = Topology::line(2);
  Transport transport(sim, topo, TransportConfig{});
  PubSubNetwork net(transport, DispatcherConfig{});  // attaches 0 and 1
  class Sink final : public TransportReceiver {
    void on_overlay_message(NodeId, const MessagePtr&) override {}
    void on_direct_message(NodeId, const MessagePtr&) override {}
  } sink;
  EXPECT_DEATH(transport.attach(NodeId{0}, sink), "already has a receiver");
}

TEST(Contracts, PublishRequiresContent) {
  Simulator sim(1);
  Topology topo = Topology::line(2);
  Transport transport(sim, topo, TransportConfig{});
  PubSubNetwork net(transport, DispatcherConfig{});
  EXPECT_DEATH(net.node(NodeId{0}).publish({}), "non-empty");
}

TEST(AlgorithmNames, AreStableAndComplete) {
  EXPECT_STREQ(to_string(Algorithm::NoRecovery), "no-recovery");
  EXPECT_STREQ(to_string(Algorithm::Push), "push");
  EXPECT_STREQ(to_string(Algorithm::SubscriberPull), "subscriber-pull");
  EXPECT_STREQ(to_string(Algorithm::PublisherPull), "publisher-pull");
  EXPECT_STREQ(to_string(Algorithm::CombinedPull), "combined-pull");
  EXPECT_STREQ(to_string(Algorithm::RandomPull), "random-pull");
}

TEST(AlgorithmRoutes, OnlyPublisherVariantsNeedRoutes) {
  EXPECT_FALSE(algorithm_needs_routes(Algorithm::NoRecovery));
  EXPECT_FALSE(algorithm_needs_routes(Algorithm::Push));
  EXPECT_FALSE(algorithm_needs_routes(Algorithm::SubscriberPull));
  EXPECT_TRUE(algorithm_needs_routes(Algorithm::PublisherPull));
  EXPECT_TRUE(algorithm_needs_routes(Algorithm::CombinedPull));
  EXPECT_FALSE(algorithm_needs_routes(Algorithm::RandomPull));
}

TEST(ProtocolFactory, ProducesCorrectlyNamedProtocols) {
  Simulator sim(1);
  Topology topo = Topology::line(2);
  Transport transport(sim, topo, TransportConfig{});
  PubSubNetwork net(transport, DispatcherConfig{});
  for (Algorithm a :
       {Algorithm::NoRecovery, Algorithm::Push, Algorithm::SubscriberPull,
        Algorithm::PublisherPull, Algorithm::CombinedPull,
        Algorithm::RandomPull}) {
    auto proto = make_recovery(a, net.node(NodeId{0}), GossipConfig{});
    ASSERT_NE(proto, nullptr);
    EXPECT_STREQ(proto->name(), to_string(a));
  }
}

}  // namespace
}  // namespace epicast
