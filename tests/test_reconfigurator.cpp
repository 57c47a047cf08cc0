// Tests for topological reconfiguration: break/repair cycles keep the
// overlay a degree-capped tree, overlapping churn behaves, and listeners
// fire in order.
#include "epicast/net/reconfigurator.hpp"

#include <gtest/gtest.h>

#include "epicast/sim/simulator.hpp"

namespace epicast {
namespace {

TEST(Reconfigurator, ForcedBreakSplitsThenRepairReconnects) {
  Simulator sim(1);
  Rng rng = sim.fork_rng();
  Topology topo = Topology::random_tree(20, 4, rng);

  ReconfigConfig cfg;
  cfg.repair_time = Duration::millis(100);
  Reconfigurator rec(sim, topo, cfg);

  bool broke = false;
  bool repaired = false;
  rec.set_break_listener([&](const Link&) {
    broke = true;
    EXPECT_FALSE(topo.connected());
    EXPECT_EQ(topo.link_count(), 18u);
  });
  rec.set_repair_listener([&](const Reconfigurator::Repair& r) {
    repaired = true;
    EXPECT_TRUE(r.added.has_value());
    EXPECT_TRUE(topo.is_tree());
  });

  rec.force_reconfiguration();
  EXPECT_TRUE(broke);
  EXPECT_EQ(rec.pending_repairs(), 1u);
  sim.run_until(SimTime::seconds(0.2));
  EXPECT_TRUE(repaired);
  EXPECT_EQ(rec.pending_repairs(), 0u);
  EXPECT_EQ(rec.breaks(), 1u);
  EXPECT_EQ(rec.repairs(), 1u);
}

TEST(Reconfigurator, RepairWaitsRepairTime) {
  Simulator sim(2);
  Rng rng = sim.fork_rng();
  Topology topo = Topology::random_tree(10, 4, rng);
  ReconfigConfig cfg;
  cfg.repair_time = Duration::millis(100);
  Reconfigurator rec(sim, topo, cfg);
  rec.force_reconfiguration();
  sim.run_until(SimTime::seconds(0.099));
  EXPECT_FALSE(topo.connected());
  sim.run_until(SimTime::seconds(0.101));
  EXPECT_TRUE(topo.is_tree());
}

class ChurnSweep : public ::testing::TestWithParam<int> {};

TEST_P(ChurnSweep, PeriodicChurnPreservesTreeAtQuietPoints) {
  // ρ = 200 ms (non-overlapping) and ρ = 30 ms (overlapping, the paper's
  // extreme case) over several seeds: after churn stops and repairs drain,
  // the overlay must be a degree-capped tree again.
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  for (const Duration rho : {Duration::millis(200), Duration::millis(30)}) {
    Simulator sim(seed);
    Rng rng = sim.fork_rng();
    Topology topo = Topology::random_tree(50, 4, rng);

    ReconfigConfig cfg;
    cfg.interval = rho;
    cfg.repair_time = Duration::millis(100);
    Reconfigurator rec(sim, topo, cfg);
    rec.start();

    sim.run_until(SimTime::seconds(3.0));
    rec.stop();
    sim.run_until(SimTime::seconds(5.0));
    EXPECT_EQ(rec.pending_repairs(), 0u);
    EXPECT_TRUE(topo.is_tree());
    for (std::uint32_t i = 0; i < topo.node_count(); ++i) {
      ASSERT_LE(topo.degree(NodeId{i}), 4u);
    }
    EXPECT_GE(rec.breaks(), 10u);
    EXPECT_EQ(rec.breaks(), rec.repairs());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnSweep, ::testing::Range(1, 8));

TEST(Reconfigurator, OverlappingRepairsMaySkip) {
  // With very aggressive churn some repairs find the components already
  // reconnected; those must be counted and must not add extra links.
  Simulator sim(11);
  Rng rng = sim.fork_rng();
  Topology topo = Topology::random_tree(30, 4, rng);
  ReconfigConfig cfg;
  cfg.interval = Duration::millis(10);
  cfg.repair_time = Duration::millis(100);
  Reconfigurator rec(sim, topo, cfg);
  rec.start();
  sim.run_until(SimTime::seconds(2.0));
  rec.stop();
  sim.run_until(SimTime::seconds(3.0));
  EXPECT_TRUE(topo.is_tree());
  EXPECT_EQ(topo.link_count(), 29u);
}

TEST(Reconfigurator, ExhaustedComponentsLeaveRepairPending) {
  // Degree cap 1, single link 0-1 over four nodes. Break the only link,
  // then saturate both components out-of-band before the repair fires:
  // every node is at the cap, so the repair must give up gracefully —
  // counted as exhausted, no link added, no assertion failure.
  Simulator sim(5);
  Topology topo(4, 1);
  topo.add_link(NodeId{0}, NodeId{1});

  ReconfigConfig cfg;
  cfg.repair_time = Duration::millis(100);
  Reconfigurator rec(sim, topo, cfg);

  std::optional<Reconfigurator::Repair> seen;
  rec.set_repair_listener(
      [&](const Reconfigurator::Repair& r) { seen = r; });

  rec.force_reconfiguration();  // only link 0-1 can be the victim
  EXPECT_FALSE(topo.connected());
  topo.add_link(NodeId{0}, NodeId{2});
  topo.add_link(NodeId{1}, NodeId{3});

  sim.run_until(SimTime::seconds(0.2));
  EXPECT_EQ(rec.repairs(), 1u);
  EXPECT_EQ(rec.exhausted_repairs(), 1u);
  EXPECT_EQ(rec.skipped_repairs(), 0u);
  EXPECT_EQ(rec.pending_repairs(), 0u);
  ASSERT_TRUE(seen.has_value());
  EXPECT_FALSE(seen->added.has_value());
  // The partition persists: {0,2} and {1,3} stay separate components.
  EXPECT_FALSE(topo.distance(NodeId{0}, NodeId{1}).has_value());
}

TEST(Reconfigurator, BackToBackBreaksInsideOneRepairWindow) {
  // Two breakages 30 ms apart, both inside the first break's 100 ms repair
  // window: repairs run in break order, every pending repair completes,
  // and the overlay is a degree-capped tree again afterwards.
  Simulator sim(7);
  Rng rng = sim.fork_rng();
  Topology topo = Topology::random_tree(20, 4, rng);

  ReconfigConfig cfg;
  cfg.repair_time = Duration::millis(100);
  Reconfigurator rec(sim, topo, cfg);

  rec.force_reconfiguration();
  EXPECT_EQ(rec.pending_repairs(), 1u);
  sim.run_until(SimTime::seconds(0.03));
  rec.force_reconfiguration();
  EXPECT_EQ(rec.pending_repairs(), 2u);
  EXPECT_EQ(topo.link_count(), 17u);

  // After the first repair only the second is still open.
  sim.run_until(SimTime::seconds(0.11));
  EXPECT_EQ(rec.pending_repairs(), 1u);

  sim.run_until(SimTime::seconds(0.3));
  EXPECT_EQ(rec.pending_repairs(), 0u);
  EXPECT_EQ(rec.breaks(), 2u);
  EXPECT_EQ(rec.repairs(), 2u);
  // Whether the second repair added a link or found the sides already
  // reconnected, the quiet-point state is a full tree within the cap.
  EXPECT_TRUE(topo.is_tree());
  for (std::uint32_t i = 0; i < topo.node_count(); ++i) {
    ASSERT_LE(topo.degree(NodeId{i}), 4u);
  }
}

TEST(Reconfigurator, RepairDefersWhileEndpointCrashed) {
  // Two nodes, one link. Break it while node 1 is crashed (excluded by the
  // node filter): the repair window expires but installing the link would
  // wire the tree to a dead endpoint, so the repair defers — pending stays
  // up, the deferral is counted — and lands once the node is back.
  Simulator sim(9);
  Topology topo(2, 1);
  topo.add_link(NodeId{0}, NodeId{1});

  ReconfigConfig cfg;
  cfg.repair_time = Duration::millis(100);
  Reconfigurator rec(sim, topo, cfg);
  bool crashed = true;
  rec.set_node_filter(
      [&crashed](NodeId n) { return !(crashed && n == NodeId{1}); });

  rec.force_reconfiguration();  // the only link is the victim
  EXPECT_EQ(topo.link_count(), 0u);

  sim.run_until(SimTime::seconds(0.15));  // first repair attempt has fired
  EXPECT_EQ(rec.repairs(), 0u);
  EXPECT_GE(rec.deferred_repairs(), 1u);
  EXPECT_EQ(rec.pending_repairs(), 1u);
  EXPECT_EQ(topo.link_count(), 0u);  // nothing wired to the dead node

  crashed = false;  // node 1 restarts
  sim.run_until(SimTime::seconds(0.35));
  EXPECT_EQ(rec.repairs(), 1u);
  EXPECT_EQ(rec.pending_repairs(), 0u);
  EXPECT_TRUE(topo.is_tree());
  EXPECT_EQ(topo.link_count(), 1u);
}

TEST(Reconfigurator, NodeFilterPassingEveryoneChangesNothing) {
  // A filter that rejects nobody must leave the repair draw sequence
  // untouched: same seed with and without the filter → same added links.
  auto run_once = [](bool with_filter) {
    Simulator sim(13);
    Rng rng = sim.fork_rng();
    Topology topo = Topology::random_tree(20, 4, rng);
    ReconfigConfig cfg;
    cfg.interval = Duration::millis(40);
    cfg.repair_time = Duration::millis(60);
    Reconfigurator rec(sim, topo, cfg);
    if (with_filter) rec.set_node_filter([](NodeId) { return true; });
    std::vector<std::pair<std::uint32_t, std::uint32_t>> added;
    rec.set_repair_listener([&](const Reconfigurator::Repair& r) {
      if (r.added) added.emplace_back(r.added->a.value(), r.added->b.value());
    });
    rec.start();
    sim.run_until(SimTime::seconds(1.0));
    rec.stop();
    sim.run_until(SimTime::seconds(2.0));
    return added;
  };
  EXPECT_EQ(run_once(false), run_once(true));
}

TEST(Reconfigurator, StopHaltsChurn) {
  Simulator sim(3);
  Rng rng = sim.fork_rng();
  Topology topo = Topology::random_tree(10, 4, rng);
  ReconfigConfig cfg;
  cfg.interval = Duration::millis(50);
  cfg.repair_time = Duration::millis(10);
  Reconfigurator rec(sim, topo, cfg);
  rec.start();
  sim.run_until(SimTime::seconds(0.25));
  const auto breaks = rec.breaks();
  EXPECT_GT(breaks, 0u);
  rec.stop();
  sim.run_until(SimTime::seconds(2.0));
  EXPECT_EQ(rec.breaks(), breaks);
  EXPECT_TRUE(topo.is_tree());
}

}  // namespace
}  // namespace epicast
