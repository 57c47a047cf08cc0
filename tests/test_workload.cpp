// Tests for workload generation: subscription counts, publish rates,
// event shape, and determinism.
#include "epicast/scenario/workload.hpp"

#include <gtest/gtest.h>

#include <set>

namespace epicast {
namespace {

struct WorkloadRig {
  explicit WorkloadRig(std::uint64_t seed, ScenarioConfig cfg = base_config())
      : config(cfg),
        sim(seed),
        topo_rng(sim.fork_rng()),
        topo(Topology::random_tree(config.nodes, 4, topo_rng)),
        transport(sim, topo, TransportConfig{}),
        net(transport, DispatcherConfig{}),
        workload(sim, net, config) {}

  static ScenarioConfig base_config() {
    ScenarioConfig cfg;
    cfg.nodes = 20;
    cfg.pattern_universe = 10;
    cfg.patterns_per_subscriber = 3;
    cfg.patterns_per_event = 2;
    cfg.publish_rate_hz = 50.0;
    return cfg;
  }

  ScenarioConfig config;
  Simulator sim;
  Rng topo_rng;
  Topology topo;
  Transport transport;
  PubSubNetwork net;
  Workload workload;
};

TEST(Workload, EveryNodeGetsExactlyPiMaxDistinctPatterns) {
  WorkloadRig rig(1);
  rig.workload.issue_subscriptions();
  for (std::uint32_t i = 0; i < 20; ++i) {
    const auto& subs = rig.workload.subscriptions_of(NodeId{i});
    std::set<Pattern> unique(subs.begin(), subs.end());
    EXPECT_EQ(subs.size(), 3u);
    EXPECT_EQ(unique.size(), 3u);
    for (Pattern p : subs) EXPECT_LT(p.value(), 10u);
    EXPECT_TRUE(rig.net.node(NodeId{i}).table().has_local(subs[0]));
  }
}

TEST(Workload, PublishRateIsApproximatelyPoisson) {
  WorkloadRig rig(2);
  rig.workload.issue_subscriptions();
  rig.sim.run_until(SimTime::seconds(0.5));
  rig.workload.start_publishing(SimTime::seconds(0.5), SimTime::seconds(4.5));
  rig.sim.run_until(SimTime::seconds(5.0));
  // 20 nodes × 50/s × 4 s = 4000 expected publishes; Poisson σ ≈ 63.
  EXPECT_NEAR(static_cast<double>(rig.workload.events_published()), 4000.0,
              250.0);
}

TEST(Workload, EventsCarryRequestedPatternCount) {
  WorkloadRig rig(3);
  rig.workload.issue_subscriptions();
  std::size_t checked = 0;
  rig.net.for_each([&](Dispatcher& d) {
    d.set_delivery_listener({});
    (void)d;
  });
  rig.workload.set_publish_listener([&](const EventPtr& e) {
    EXPECT_EQ(e->patterns().size(), 2u);
    for (const PatternSeq& ps : e->patterns()) {
      EXPECT_LT(ps.pattern.value(), 10u);
      EXPECT_GE(ps.seq.value(), 1u);
    }
    ++checked;
  });
  rig.sim.run_until(SimTime::seconds(0.5));
  rig.workload.start_publishing(SimTime::seconds(0.5), SimTime::seconds(1.0));
  rig.sim.run_until(SimTime::seconds(1.2));
  EXPECT_GT(checked, 100u);
}

TEST(Workload, DeterministicAcrossIdenticalRuns) {
  auto collect = [](std::uint64_t seed) {
    WorkloadRig rig(seed);
    rig.workload.issue_subscriptions();
    std::vector<EventId> ids;
    rig.workload.set_publish_listener(
        [&](const EventPtr& e) { ids.push_back(e->id()); });
    rig.sim.run_until(SimTime::seconds(0.5));
    rig.workload.start_publishing(SimTime::seconds(0.5),
                                  SimTime::seconds(1.0));
    rig.sim.run_until(SimTime::seconds(1.0));
    return ids;
  };
  EXPECT_EQ(collect(7), collect(7));
  EXPECT_NE(collect(7), collect(8));
}

TEST(Workload, PublishingStopsAtDeadline) {
  WorkloadRig rig(4);
  rig.workload.issue_subscriptions();
  rig.sim.run_until(SimTime::seconds(0.5));
  rig.workload.start_publishing(SimTime::seconds(0.5), SimTime::seconds(1.0));
  rig.sim.run_until(SimTime::seconds(3.0));
  const auto count = rig.workload.events_published();
  rig.sim.run_until(SimTime::seconds(5.0));
  EXPECT_EQ(rig.workload.events_published(), count);
}

}  // namespace
}  // namespace epicast
