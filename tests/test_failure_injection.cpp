// Failure-injection integration tests: loss bursts, a dead recovery
// channel, asymmetric links, and partitions. These probe the system's
// behaviour at the edges the stochastic scenarios rarely hit.
#include <gtest/gtest.h>

#include "epicast/gossip/pull.hpp"
#include "epicast/scenario/runner.hpp"
#include "gossip_harness.hpp"

namespace epicast {
namespace {

using testing::GossipHarness;

TEST(FailureInjection, LossBurstIsRecoveredAfterwards) {
  // Drop EVERY event crossing 1→2 for a while (a burst, like a fading
  // radio link), then heal. Pull recovery must backfill the burst.
  GossipHarness h(3, Algorithm::CombinedPull);
  h.subscribe_and_settle({{0, 1}, {2, 1}});
  h.start_recovery();

  auto& pub = h.net().node(NodeId{0});
  std::vector<EventId> burst;
  (void)pub.publish({Pattern{1}});  // initialize sequence expectations
  h.run_for(0.1);

  for (int i = 0; i < 8; ++i) {
    const EventPtr e = pub.publish({Pattern{1}});
    h.drop_event_on_link(NodeId{1}, NodeId{2}, e->id());
    burst.push_back(e->id());
    h.run_for(0.02);
  }
  h.run_for(0.05);
  (void)pub.publish({Pattern{1}});  // heals: reveals the gap
  h.run_for(3.0);

  for (const EventId& id : burst) {
    EXPECT_TRUE(h.delivered(2, id));
    EXPECT_TRUE(h.recovered(2, id));
  }
}

TEST(FailureInjection, DeadRecoveryChannelDegradesToBaseline) {
  // If every gossip-class message is dropped, recovery must contribute
  // nothing — and must not corrupt normal dispatching either.
  ScenarioConfig cfg = ScenarioConfig::paper_defaults(Algorithm::CombinedPull);
  cfg.nodes = 25;
  cfg.seed = 3;
  cfg.measure = Duration::seconds(1.5);
  cfg.oob_loss_rate = 1.0;  // requests and replies all die
  const ScenarioResult crippled = run_scenario(cfg);

  cfg.algorithm = Algorithm::NoRecovery;
  cfg.oob_loss_rate = 0.0;
  const ScenarioResult baseline = run_scenario(cfg);

  EXPECT_EQ(crippled.recovered_pairs, 0u);
  // Same seed, same tree, same event process → delivery within noise of
  // the baseline (gossip still consumes some link capacity).
  EXPECT_NEAR(crippled.delivery_rate, baseline.delivery_rate, 0.05);
}

TEST(FailureInjection, AsymmetricLinkLosesOneDirectionOnly) {
  GossipHarness h(2, Algorithm::NoRecovery);
  h.subscribe_and_settle({{0, 1}, {1, 1}});

  // Kill 0→1 for events, keep 1→0 alive.
  h.drop_all_events_on_link(NodeId{0}, NodeId{1});
  const EventPtr fwd = h.net().node(NodeId{0}).publish({Pattern{1}});
  const EventPtr back = h.net().node(NodeId{1}).publish({Pattern{1}});
  h.run_for(0.5);

  EXPECT_FALSE(h.delivered(1, fwd->id()));
  EXPECT_TRUE(h.delivered(0, back->id()));
}

TEST(FailureInjection, PartitionThenRepairBackfillsViaGossip) {
  // Physically remove the only link to the subscriber mid-stream; events
  // published meanwhile are unroutable. After the overlay is repaired and
  // routes rebuilt, pull recovery fetches the missed interval.
  GossipHarness h(3, Algorithm::CombinedPull);
  h.subscribe_and_settle({{0, 1}, {2, 1}});
  h.start_recovery();

  auto& pub = h.net().node(NodeId{0});
  (void)pub.publish({Pattern{1}});
  h.run_for(0.1);

  h.topology().remove_link(NodeId{1}, NodeId{2});
  std::vector<EventId> missed;
  for (int i = 0; i < 5; ++i) {
    missed.push_back(pub.publish({Pattern{1}})->id());
    h.run_for(0.02);
  }
  h.topology().add_link(NodeId{1}, NodeId{2});
  h.net().rebuild_routes();
  (void)pub.publish({Pattern{1}});  // reveals the gap post-repair
  h.run_for(3.0);

  for (const EventId& id : missed) {
    EXPECT_TRUE(h.recovered(2, id)) << "seq gap not backfilled";
  }
}

TEST(FailureInjection, CacheTooSmallToRecoverEverything) {
  // A 2-event cache cannot hold a 6-event burst: recovery must restore
  // only the events still buffered somewhere and leave the rest lost,
  // without looping forever (entries expire). FIFO eviction decides which:
  // once the closing event is published, the publisher holds burst[5] and
  // that event, so burst[5] alone comes back.
  GossipConfig g = GossipHarness::default_gossip();
  g.buffer_size = 2;
  g.lost_entry_ttl = Duration::seconds(1.0);
  GossipHarness h(3, Algorithm::CombinedPull, g);
  h.subscribe_and_settle({{0, 1}, {2, 1}});
  h.start_recovery();

  auto& pub = h.net().node(NodeId{0});
  (void)pub.publish({Pattern{1}});
  h.run_for(0.1);
  std::vector<EventId> burst;
  for (int i = 0; i < 6; ++i) {
    const EventPtr e = pub.publish({Pattern{1}});
    h.drop_event_on_link(NodeId{1}, NodeId{2}, e->id());
    burst.push_back(e->id());
  }
  h.run_for(0.05);
  (void)pub.publish({Pattern{1}});
  h.run_for(3.0);

  for (std::size_t i = 0; i < burst.size(); ++i) {
    EXPECT_EQ(h.recovered(2, burst[i]), i == 5) << "burst[" << i << "]";
  }
  // And the bookkeeping drained (expired via TTL), not stuck retrying.
  auto* pull = dynamic_cast<PullProtocol*>(h.net().node(NodeId{2}).recovery());
  ASSERT_NE(pull, nullptr);
  EXPECT_TRUE(pull->lost().empty());
}

TEST(FailureInjection, GossipStormDoesNotDuplicateDeliveries) {
  // Saturate with redundant recoveries: multiple holders answer the same
  // digest; the subscriber must still deliver each event exactly once.
  GossipConfig g = GossipHarness::default_gossip();
  g.forward_probability = 1.0;  // maximum redundancy
  GossipHarness h(5, Algorithm::CombinedPull, g);
  h.subscribe_and_settle({{0, 1}, {1, 1}, {3, 1}, {4, 1}});
  h.start_recovery();

  auto& pub = h.net().node(NodeId{0});
  (void)pub.publish({Pattern{1}});
  h.run_for(0.1);
  const EventPtr lost = pub.publish({Pattern{1}});
  h.drop_event_on_link(NodeId{3}, NodeId{4}, lost->id());
  h.run_for(0.1);
  (void)pub.publish({Pattern{1}});
  h.run_for(2.0);

  EXPECT_TRUE(h.recovered(4, lost->id()));
  EXPECT_EQ(h.net().node(NodeId{4}).stats().delivered,
            3u);  // three events, once each
}

TEST(RetryHardening, PushRequestRetriesAfterLostRequest) {
  // Push flow: digest → request → reply. Kill the subscriber's first two
  // requests on the out-of-band channel; with request_timeout set the
  // protocol must notice the silence, re-send, and still recover.
  GossipConfig g = GossipHarness::default_gossip();
  g.request_timeout = Duration::millis(60);
  g.request_max_retries = 4;
  GossipHarness h(3, Algorithm::Push, g);
  h.subscribe_and_settle({{0, 1}, {2, 1}});
  h.start_recovery();

  int requests_killed = 0;
  h.transport().add_fault_filter(
      [&requests_killed](NodeId from, NodeId, const Message& m, bool) {
        if (from == NodeId{2} &&
            m.message_class() == MessageClass::GossipRequest &&
            requests_killed < 2) {
          ++requests_killed;
          return false;
        }
        return true;
      });

  auto& pub = h.net().node(NodeId{0});
  const EventPtr lost = pub.publish({Pattern{1}});
  h.drop_event_on_link(NodeId{1}, NodeId{2}, lost->id());
  h.run_for(3.0);

  EXPECT_EQ(requests_killed, 2);
  EXPECT_TRUE(h.recovered(2, lost->id()));
  // Each push round may open a fresh exchange for the same id, and a timer
  // whose ids arrived meanwhile counts nothing — so the floor is one
  // timeout and one retry, not one per killed request.
  const GossipStats& s = h.protocol(2)->stats();
  EXPECT_GE(s.request_timeouts, 1u);
  EXPECT_GE(s.request_retries, 1u);
  EXPECT_EQ(s.requests_abandoned, 0u);
}

TEST(RetryHardening, RequestIsAbandonedAfterMaxRetries) {
  // Nothing ever answers: after request_max_retries re-sends the request
  // must be given up on — bounded, not an infinite retry loop.
  GossipConfig g = GossipHarness::default_gossip();
  g.request_timeout = Duration::millis(50);
  g.request_max_retries = 2;
  GossipHarness h(3, Algorithm::Push, g);
  h.subscribe_and_settle({{0, 1}, {2, 1}});
  h.start_recovery();

  h.transport().add_fault_filter([](NodeId from, NodeId, const Message& m,
                                    bool) {
    return !(from == NodeId{2} &&
             m.message_class() == MessageClass::GossipRequest);
  });

  auto& pub = h.net().node(NodeId{0});
  const EventPtr lost = pub.publish({Pattern{1}});
  h.drop_event_on_link(NodeId{1}, NodeId{2}, lost->id());
  h.run_for(3.0);

  EXPECT_FALSE(h.delivered(2, lost->id()));
  const GossipStats& s = h.protocol(2)->stats();
  EXPECT_GE(s.requests_abandoned, 1u);
  // Bounded: every exchange costs at most request_max_retries re-sends, so
  // retries can never outrun timeouts.
  EXPECT_LE(s.request_retries, s.request_timeouts);
}

TEST(RetryHardening, PullDigestSilenceCountsTimeouts) {
  // Swallow every pull digest the subscriber originates: the watch fires,
  // counts one timeout per silent exchange, and marks the targets suspect.
  GossipConfig g = GossipHarness::default_gossip();
  g.request_timeout = Duration::millis(60);
  GossipHarness h(3, Algorithm::CombinedPull, g);
  h.subscribe_and_settle({{0, 1}, {2, 1}});
  h.start_recovery();

  h.transport().add_fault_filter([](NodeId from, NodeId, const Message& m,
                                    bool) {
    return !(from == NodeId{2} &&
             m.message_class() == MessageClass::GossipDigest);
  });

  auto& pub = h.net().node(NodeId{0});
  (void)pub.publish({Pattern{1}});
  h.run_for(0.1);
  const EventPtr lost = pub.publish({Pattern{1}});
  h.drop_event_on_link(NodeId{1}, NodeId{2}, lost->id());
  h.run_for(0.1);
  (void)pub.publish({Pattern{1}});  // reveals the gap
  h.run_for(2.0);

  EXPECT_FALSE(h.recovered(2, lost->id()));
  EXPECT_GE(h.protocol(2)->stats().request_timeouts, 1u);
}

TEST(RetryHardening, DisabledByDefaultKeepsCountersZero) {
  // request_timeout defaults to zero: even under heavy loss no timer is
  // armed and every retry counter stays exactly zero (the paper's
  // behaviour, pinned by the determinism seed guards).
  GossipHarness h(3, Algorithm::CombinedPull);
  h.subscribe_and_settle({{0, 1}, {2, 1}});
  h.start_recovery();

  auto& pub = h.net().node(NodeId{0});
  (void)pub.publish({Pattern{1}});
  h.run_for(0.1);
  const EventPtr lost = pub.publish({Pattern{1}});
  h.drop_event_on_link(NodeId{1}, NodeId{2}, lost->id());
  h.run_for(0.1);
  (void)pub.publish({Pattern{1}});
  h.run_for(2.0);

  EXPECT_TRUE(h.recovered(2, lost->id()));
  for (std::uint32_t n = 0; n < 3; ++n) {
    const GossipStats& s = h.protocol(n)->stats();
    EXPECT_EQ(s.request_timeouts, 0u);
    EXPECT_EQ(s.request_retries, 0u);
    EXPECT_EQ(s.requests_abandoned, 0u);
  }
}

}  // namespace
}  // namespace epicast
