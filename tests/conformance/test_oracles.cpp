// Conformance tier — the oracle layer's own tests.
//
// Two obligations, per ISSUE: (a) every oracle demonstrably *fires* when
// fed a deliberate violation (FailMode::Record suites driven through the
// public hooks and verify_* seams), and (b) the suite is wired into
// run_scenario and performs a non-zero number of checks in real runs —
// and none when disabled.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "../gossip_harness.hpp"
#include "epicast/epicast.hpp"
#include "epicast/oracle/pair_set.hpp"
#include "scenario_builders.hpp"

namespace {

using namespace epicast;
using epicast::oracle::BufferBoundOracle;
using epicast::oracle::ConservationOracle;
using epicast::oracle::DigestCoverageOracle;
using epicast::oracle::FailMode;
using epicast::oracle::MatchingDeliveryOracle;
using epicast::oracle::OracleContext;
using epicast::oracle::OracleSuite;
using epicast::oracle::UniqueDeliveryOracle;
using epicast::oracle::WireRoundTripOracle;
using GossipHarness = epicast::testing::GossipHarness;

EventPtr make_event(std::uint32_t source, std::uint64_t seq,
                    std::uint32_t pattern = 1) {
  return std::make_shared<const EventData>(
      EventId{NodeId{source}, seq},
      std::vector<PatternSeq>{{Pattern{pattern}, SeqNo{seq}}},
      /*payload_bytes=*/64, SimTime::zero());
}

/// A Record-mode suite with no live scenario behind it — hooks are driven
/// by hand. The context may carry a harness's sim/network when the oracle
/// under test needs them.
std::unique_ptr<OracleSuite> record_suite(OracleContext ctx = {}) {
  return std::make_unique<OracleSuite>(ctx, FailMode::Record);
}

TEST(UniqueDeliveryOracleTest, FiresOnDuplicateDelivery) {
  auto suite = record_suite();
  suite->add(std::make_unique<UniqueDeliveryOracle>());

  const EventPtr e = make_event(0, 1);
  suite->notify_delivery(NodeId{3}, e, false);
  EXPECT_TRUE(suite->violations().empty());
  suite->notify_delivery(NodeId{4}, e, false);  // other node: still fine
  EXPECT_TRUE(suite->violations().empty());

  suite->notify_delivery(NodeId{3}, e, false);  // same (event, node) again
  ASSERT_EQ(suite->violations().size(), 1u);
  EXPECT_EQ(suite->violations()[0].oracle, "unique-delivery");
  EXPECT_EQ(suite->violations()[0].node, NodeId{3});
  EXPECT_GT(suite->checks(), 0u);
}

TEST(MatchingDeliveryOracleTest, FiresOnDeliveryToNonSubscriber) {
  // A real 3-node network: node 2 subscribes to pattern 1, node 1 to
  // nothing. The oracle consults the live subscription tables.
  GossipHarness h(3, Algorithm::NoRecovery);
  h.subscribe_and_settle({{2, 1}});

  auto suite = record_suite({&h.sim(), &h.net(), SizingMode::Nominal});
  suite->add(std::make_unique<MatchingDeliveryOracle>());

  const EventPtr e = make_event(0, 1, /*pattern=*/1);
  suite->notify_delivery(NodeId{2}, e, false);  // subscribed: fine
  EXPECT_TRUE(suite->violations().empty());

  suite->notify_delivery(NodeId{1}, e, false);  // not subscribed
  ASSERT_EQ(suite->violations().size(), 1u);
  EXPECT_EQ(suite->violations()[0].oracle, "matching-delivery");
  EXPECT_EQ(suite->violations()[0].node, NodeId{1});
}

TEST(ConservationOracleTest, FiresOnUnpublishedDelivery) {
  auto suite = record_suite();
  suite->add(std::make_unique<ConservationOracle>());

  const EventPtr e = make_event(0, 7);
  // Delivered at node 5 (not the source), never published.
  suite->notify_delivery(NodeId{5}, e, false);
  ASSERT_EQ(suite->violations().size(), 1u);
  EXPECT_EQ(suite->violations()[0].oracle, "conservation");
}

TEST(ConservationOracleTest, FiresOnRecoveredDeliveryWithoutReply) {
  auto suite = record_suite();
  suite->add(std::make_unique<ConservationOracle>());

  const EventPtr e = make_event(0, 7);
  suite->notify_publish(e);
  suite->notify_delivery(NodeId{5}, e, /*recovered=*/true);
  ASSERT_EQ(suite->violations().size(), 1u);
  EXPECT_EQ(suite->violations()[0].oracle, "conservation");
  EXPECT_EQ(suite->violations()[0].node, NodeId{5});
}

TEST(ConservationOracleTest, AcceptsRecoveredDeliveryAfterReply) {
  auto suite = record_suite();
  suite->add(std::make_unique<ConservationOracle>());

  const EventPtr e = make_event(0, 7);
  suite->notify_publish(e);
  const RecoveryReplyMessage reply(NodeId{1}, /*nominal_bytes=*/100, {e});
  suite->on_send(NodeId{1}, NodeId{5}, reply, /*overlay=*/false);
  suite->notify_delivery(NodeId{5}, e, /*recovered=*/true);
  EXPECT_TRUE(suite->violations().empty());
}

TEST(UniqueDeliveryOracleTest, FiresOnDuplicatesAfterTheTableHasGrown) {
  // 40 sources x 25 sequence numbers x 8 nodes, delivered node by node:
  // all 1000 ids are stored at nodes 0, 5 and 63 before node 64 widens the
  // node bitmaps to two words, and at 64, 100 and 127 before node 128
  // widens them to three. Every id recurs at every node and every sequence
  // number at every source, so pairs that differ in one field only must
  // stay distinct — and each one, delivered again in another order after
  // both widens, must fire.
  auto suite = record_suite();
  suite->add(std::make_unique<UniqueDeliveryOracle>());
  const std::vector<std::uint32_t> nodes = {0, 5, 63, 64, 100, 127, 128, 130};
  for (const std::uint32_t node : nodes) {
    for (std::uint32_t src = 0; src < 40; ++src) {
      for (std::uint64_t seq = 1; seq <= 25; ++seq) {
        suite->notify_delivery(NodeId{node}, make_event(src, seq), false);
      }
    }
  }
  ASSERT_TRUE(suite->violations().empty());
  std::size_t duplicates = 0;
  for (auto node = nodes.rbegin(); node != nodes.rend(); ++node) {
    for (std::uint64_t seq = 25; seq >= 1; --seq) {
      for (std::uint32_t src = 0; src < 40; ++src) {
        suite->notify_delivery(NodeId{*node}, make_event(src, seq), false);
        ASSERT_EQ(suite->violations().size(), ++duplicates);
        EXPECT_EQ(suite->violations().back().node, NodeId{*node});
      }
    }
  }
  // Fresh pairs after all that are still accepted, and one past 192
  // widens the bitmaps once more without losing what they hold.
  suite->notify_delivery(NodeId{8}, make_event(0, 1), false);
  suite->notify_delivery(NodeId{200}, make_event(0, 1), false);
  EXPECT_EQ(suite->violations().size(), duplicates);
  suite->notify_delivery(NodeId{0}, make_event(39, 25), false);
  EXPECT_EQ(suite->violations().size(), duplicates + 1);
}

TEST(ConservationOracleTest, OfferedPairsAgreeWithAReferenceSet) {
  // Random replies offer (event, node) pairs to 12 nodes; events and
  // requests carrying the same ids offer nothing. The first third of the
  // rounds offers only to nodes below 64, the second third adds nodes up
  // to 127 (a widen to two words) and the last adds nodes past 128 (a
  // widen to three). Afterwards a recovered delivery of every (event,
  // node) pair fires exactly when a std::set model of the offers lacks
  // the pair — including pairs that differ from an offered one only in
  // the node.
  auto suite = record_suite();
  suite->add(std::make_unique<ConservationOracle>());
  constexpr std::uint32_t kSources = 16;
  constexpr std::uint64_t kSeqs = 64;
  constexpr std::array<std::uint32_t, 12> kNodes = {0,   1,   2,   40,
                                                   63,  64,  65,  100,
                                                   127, 128, 129, 150};
  const NodeId sender{200};
  std::vector<EventPtr> events;
  for (std::uint32_t src = 0; src < kSources; ++src) {
    for (std::uint64_t seq = 1; seq <= kSeqs; ++seq) {
      events.push_back(make_event(src, seq));
      suite->notify_publish(events.back());
    }
  }
  std::set<std::tuple<std::uint32_t, std::uint64_t, std::uint32_t>> offered;
  Rng rng(5);
  for (int round = 0; round < 900; ++round) {
    const std::uint64_t reachable = round < 300 ? 5 : round < 600 ? 9 : 12;
    const NodeId to{kNodes[rng.next_below(reachable)]};
    std::vector<EventPtr> carried;
    for (std::uint64_t k = 1 + rng.next_below(4); k > 0; --k) {
      carried.push_back(events[rng.next_below(events.size())]);
    }
    if (round % 3 == 0) {
      // Not a reply: the same ids travel as an event and a request.
      const EventMessage as_event(carried.front(), {});
      suite->on_send(sender, to, as_event, /*overlay=*/true);
      const RecoveryRequestMessage as_request(sender, 100,
                                              {carried.front()->id()});
      suite->on_send(sender, to, as_request, /*overlay=*/false);
      continue;
    }
    for (const EventPtr& e : carried) {
      offered.emplace(e->source().value(), e->id().source_seq, to.value());
    }
    const RecoveryReplyMessage reply(sender, 100, carried);
    suite->on_send(sender, to, reply, /*overlay=*/false);
  }
  ASSERT_TRUE(suite->violations().empty());

  std::size_t fired_next_to_an_offer = 0;
  for (const EventPtr& e : events) {
    for (std::size_t i = 0; i < kNodes.size(); ++i) {
      const std::uint32_t node = kNodes[i];
      const std::size_t before = suite->violations().size();
      suite->notify_delivery(NodeId{node}, e, /*recovered=*/true);
      const bool fired = suite->violations().size() > before;
      const bool was_offered = offered.contains(
          {e->source().value(), e->id().source_seq, node});
      ASSERT_EQ(fired, !was_offered)
          << "event (" << e->source().value() << "#" << e->id().source_seq
          << ") at node " << node;
      if (fired && offered.contains({e->source().value(),
                                     e->id().source_seq,
                                     kNodes[(i + 1) % kNodes.size()]})) {
        ++fired_next_to_an_offer;
      }
    }
  }
  EXPECT_GT(offered.size(), 1000u);
  EXPECT_GT(fired_next_to_an_offer, 0u);
}

TEST(PairSetTest, AgreesWithAReferenceSetAcrossWidens) {
  // Random (source, seq, node) triples whose node ids are drawn below a
  // bound that steps from 64 to 300 in five stages, so the bitmaps widen
  // from one word to five while every earlier row holds pairs. After every
  // step, insert's result — and contains on the triple, on each triple
  // differing from it in one field, and on a random triple — agree with a
  // std::set model.
  oracle::PairSet set;
  std::set<std::tuple<std::uint32_t, std::uint64_t, std::uint32_t>> model;
  constexpr std::uint32_t kSources = 6;
  constexpr std::uint64_t kSeqs = 40;
  constexpr int kSteps = 6000;
  const auto agrees = [&](std::uint32_t src, std::uint64_t seq,
                          std::uint32_t node) {
    return set.contains(EventId{NodeId{src}, seq}, NodeId{node}) ==
           model.contains({src, seq, node});
  };
  Rng rng(28);
  std::vector<std::size_t> widths = {set.width()};
  for (int step = 0; step < kSteps; ++step) {
    const std::uint32_t bound =
        std::min<std::uint32_t>(300, 64 * (1 + 5 * step / kSteps));
    const auto src = static_cast<std::uint32_t>(rng.next_below(kSources));
    const std::uint64_t seq = rng.next_below(kSeqs);
    const auto node = static_cast<std::uint32_t>(rng.next_below(bound));
    ASSERT_EQ(set.insert(EventId{NodeId{src}, seq}, NodeId{node}),
              model.emplace(src, seq, node).second)
        << "step " << step;
    if (set.width() != widths.back()) widths.push_back(set.width());
    ASSERT_TRUE(agrees(src, seq, node)) << "step " << step;
    ASSERT_TRUE(agrees(src + 1, seq, node)) << "step " << step;
    ASSERT_TRUE(agrees(src, seq + 1, node)) << "step " << step;
    ASSERT_TRUE(agrees(src, seq, node + 1)) << "step " << step;
    ASSERT_TRUE(agrees(src, seq, node ^ 64)) << "step " << step;
    if (src > 0) {
      ASSERT_TRUE(agrees(src - 1, seq, node)) << "step " << step;
    }
    if (seq > 0) {
      ASSERT_TRUE(agrees(src, seq - 1, node)) << "step " << step;
    }
    if (node > 0) {
      ASSERT_TRUE(agrees(src, seq, node - 1)) << "step " << step;
    }
    ASSERT_TRUE(agrees(static_cast<std::uint32_t>(rng.next_below(kSources + 2)),
                       rng.next_below(kSeqs + 2),
                       static_cast<std::uint32_t>(rng.next_below(400))))
        << "step " << step;
  }
  EXPECT_EQ(widths, (std::vector<std::size_t>{1, 2, 3, 4, 5}));
  for (std::uint32_t src = 0; src <= kSources; ++src) {
    for (std::uint64_t seq = 0; seq <= kSeqs; ++seq) {
      for (std::uint32_t node = 0; node < 330; ++node) {
        ASSERT_TRUE(agrees(src, seq, node))
            << "(" << src << "#" << seq << ") at node " << node;
      }
    }
  }
  EXPECT_GT(model.size(), 4000u);
}

TEST(BufferBoundOracleTest, FiresOnOccupancyAboveBeta) {
  auto suite = record_suite();
  auto* oracle = new BufferBoundOracle();
  suite->add(std::unique_ptr<BufferBoundOracle>(oracle));

  oracle->verify_occupancy(NodeId{2}, /*size=*/4, /*capacity=*/4);
  EXPECT_TRUE(suite->violations().empty());
  oracle->verify_occupancy(NodeId{2}, /*size=*/5, /*capacity=*/4);
  ASSERT_EQ(suite->violations().size(), 1u);
  EXPECT_EQ(suite->violations()[0].oracle, "buffer-bound");
  EXPECT_EQ(suite->violations()[0].node, NodeId{2});
}

TEST(DigestCoverageOracleTest, FiresOnDigestOfUnbufferedEvent) {
  // Node 0 runs a real push protocol and caches its own publish; a forged
  // originated digest claiming a never-published id must fire.
  GossipHarness h(3, Algorithm::Push);
  h.subscribe_and_settle({{0, 1}, {2, 1}});
  const EventPtr e = h.net().node(NodeId{0}).publish({Pattern{1}});
  h.run_for(0.1);
  ASSERT_TRUE(h.protocol(0)->cache().contains(e->id()));

  auto suite = record_suite({&h.sim(), &h.net(), SizingMode::Nominal});
  suite->add(std::make_unique<DigestCoverageOracle>());

  const PushDigestMessage honest(NodeId{0}, 100, Pattern{1}, {e->id()},
                                 /*hops=*/0);
  suite->on_send(NodeId{0}, NodeId{1}, honest, /*overlay=*/true);
  EXPECT_TRUE(suite->violations().empty());

  const EventId bogus{NodeId{0}, 999};
  const PushDigestMessage forged(NodeId{0}, 100, Pattern{1}, {bogus},
                                 /*hops=*/0);
  // A *forwarded* copy (hops > 0) is exempt: the ids are the originator's.
  const PushDigestMessage forwarded(NodeId{0}, 100, Pattern{1}, {bogus},
                                    /*hops=*/1);
  suite->on_send(NodeId{1}, NodeId{2}, forwarded, /*overlay=*/true);
  EXPECT_TRUE(suite->violations().empty());

  suite->on_send(NodeId{0}, NodeId{1}, forged, /*overlay=*/true);
  ASSERT_EQ(suite->violations().size(), 1u);
  EXPECT_EQ(suite->violations()[0].oracle, "digest-coverage");
  EXPECT_EQ(suite->violations()[0].node, NodeId{0});
}

TEST(DigestCoverageOracleTest, FiresOnReplyOfUnbufferedEvent) {
  GossipHarness h(3, Algorithm::Push);
  h.subscribe_and_settle({{0, 1}, {2, 1}});
  h.net().node(NodeId{0}).publish({Pattern{1}});
  h.run_for(0.1);

  auto suite = record_suite({&h.sim(), &h.net(), SizingMode::Nominal});
  suite->add(std::make_unique<DigestCoverageOracle>());

  // A reply carrying an event the sender never buffered (it was "served"
  // by node 1, a mere router with an empty cache).
  const EventPtr foreign = make_event(0, 999);
  const RecoveryReplyMessage reply(NodeId{1}, 100, {foreign});
  suite->on_send(NodeId{1}, NodeId{2}, reply, /*overlay=*/false);
  ASSERT_EQ(suite->violations().size(), 1u);
  EXPECT_EQ(suite->violations()[0].oracle, "digest-coverage");
}

TEST(WireRoundTripOracleTest, PassesOnHonestFrameAndFiresOnCorruptBytes) {
  auto suite = record_suite({nullptr, nullptr, SizingMode::Wire});
  auto* oracle = new WireRoundTripOracle();
  suite->add(std::unique_ptr<WireRoundTripOracle>(oracle));

  const RecoveryRequestMessage req(NodeId{3}, 100,
                                   {EventId{NodeId{1}, 4}});
  oracle->verify_frame(NodeId{3}, req);
  EXPECT_TRUE(suite->violations().empty());
  EXPECT_GT(suite->checks(), 0u);

  // Truncate the honest frame: decode must fail and the oracle must fire.
  wire::WireBuffer buf;
  wire::Codec::encode(req, buf);
  const auto frame = buf.bytes();
  oracle->verify_bytes(NodeId{3}, frame.subspan(0, frame.size() - 1));
  ASSERT_EQ(suite->violations().size(), 1u);
  EXPECT_EQ(suite->violations()[0].oracle, "wire-round-trip");
  EXPECT_EQ(suite->violations()[0].node, NodeId{3});
}

// -- wiring into run_scenario -------------------------------------------------

ScenarioConfig small_scenario(SizingMode mode) {
  ScenarioConfig cfg = ScenarioConfig::paper_defaults(Algorithm::CombinedPull);
  cfg.nodes = 16;
  cfg.warmup = Duration::seconds(0.5);
  cfg.measure = Duration::seconds(0.5);
  cfg.seed = 7;
  cfg.sizing_mode = mode;
  return cfg;
}

TEST(OracleSuiteWiring, EveryScenarioRunsWithActiveOracles) {
  ScenarioConfig cfg = small_scenario(SizingMode::Nominal);
  ASSERT_TRUE(cfg.oracles) << "oracles must default on in tests";
  const ScenarioResult r = run_scenario(cfg);
  // Millions of sim events, thousands of deliveries: the six oracles must
  // have checked plenty — and aborted nothing (we got here).
  EXPECT_GT(r.oracle_checks, 1000u);
}

TEST(OracleSuiteWiring, WireModeExercisesRoundTripOracle) {
  const ScenarioResult nominal = run_scenario(small_scenario(SizingMode::Nominal));
  const ScenarioResult wire = run_scenario(small_scenario(SizingMode::Wire));
  // The wire-round-trip oracle only checks under SizingMode::Wire, so the
  // wire run performs strictly more checks on the same traffic.
  EXPECT_GT(wire.oracle_checks, nominal.oracle_checks);
}

TEST(OracleSuiteWiring, DisabledScenarioPerformsNoChecks) {
  ScenarioConfig cfg = small_scenario(SizingMode::Nominal);
  cfg.oracles = false;
  const ScenarioResult r = run_scenario(cfg);
  EXPECT_EQ(r.oracle_checks, 0u);
}

TEST(OracleSuiteWiring, DisabledScenarioIsBitIdentical) {
  ScenarioConfig cfg = small_scenario(SizingMode::Nominal);
  const ScenarioResult with = run_scenario(cfg);
  cfg.oracles = false;
  const ScenarioResult without = run_scenario(cfg);
  // Oracles are pure observers: enabling them cannot change the run.
  EXPECT_EQ(with.sim_events_executed, without.sim_events_executed);
  EXPECT_EQ(with.delivered_pairs, without.delivered_pairs);
  EXPECT_EQ(with.expected_pairs, without.expected_pairs);
  EXPECT_EQ(with.delivery_rate, without.delivery_rate);
}

TEST(OracleSuiteWiring, ReportsTheOracleBytesOutsideTheTotal) {
  // The paper's defaults under push, as the repo benchmark runs them: the
  // per-pair hash sets the bitmaps replaced held 10.4 MB at scenario end,
  // the bitmaps about 1.2 MB. The figure is the oracles' alone, so the
  // protocol's total is the same with them off.
  ScenarioConfig cfg = figures::base(Algorithm::Push, 0.5, 16);
  const ScenarioResult on = run_scenario(cfg);
  EXPECT_GT(on.memory.oracle_bytes, 0u);
  EXPECT_LT(on.memory.oracle_bytes, 2'000'000u);
  cfg.oracles = false;
  const ScenarioResult off = run_scenario(cfg);
  EXPECT_EQ(off.memory.oracle_bytes, 0u);
  EXPECT_EQ(off.memory.total_bytes(), on.memory.total_bytes());
}

TEST(OracleSuiteWiring, DefaultSuiteHasSixOracles) {
  OracleSuite suite({}, FailMode::Record);
  oracle::add_default_oracles(suite);
  EXPECT_EQ(suite.oracle_count(), 6u);
}

}  // namespace
