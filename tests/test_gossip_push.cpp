// Behavioural tests for the Push protocol (§III-B): caching policy, digest
// propagation along subscription routes, request/reply recovery, and the
// cases where push must stay silent.
#include "epicast/gossip/push.hpp"

#include <gtest/gtest.h>

#include "gossip_harness.hpp"

namespace epicast {
namespace {

using testing::GossipHarness;

TEST(Push, RecoversEventDroppedOnOneLink) {
  // 0 — 1 — 2; 0 and 2 subscribe to p. An event published at 0 is dropped
  // on the 1→2 hop; push gossip must restore it at 2.
  GossipHarness h(3, Algorithm::Push);
  h.subscribe_and_settle({{0, 1}, {2, 1}});
  h.start_recovery();

  // Publish a first event so we can learn its id; then drop the second.
  const EventPtr e = h.net().node(NodeId{0}).publish({Pattern{1}});
  h.drop_event_on_link(NodeId{1}, NodeId{2}, e->id());
  // Re-publish is impossible (ids are unique); instead drop BEFORE delivery:
  // the fault filter applies to the 1→2 forward which has not happened yet
  // (the message is still serializing on 0→1).
  h.run_for(2.0);

  EXPECT_TRUE(h.delivered(2, e->id()));
  EXPECT_TRUE(h.recovered(2, e->id()));
  EXPECT_GT(h.protocol(2)->stats().requests_sent, 0u);
  EXPECT_GT(h.protocol(0)->stats().events_served, 0u);
}

TEST(Push, PublisherCachesOwnEvents) {
  GossipHarness h(3, Algorithm::Push);
  h.subscribe_and_settle({{2, 1}});
  const EventPtr e = h.net().node(NodeId{0}).publish({Pattern{1}});
  h.run_for(0.2);
  EXPECT_TRUE(h.protocol(0)->cache().contains(e->id()));   // publisher
  EXPECT_TRUE(h.protocol(2)->cache().contains(e->id()));   // subscriber
  EXPECT_FALSE(h.protocol(1)->cache().contains(e->id()));  // mere router
}

TEST(Push, NonSubscriberDoesNotRequest) {
  // Node 1 routes pattern 1 but is not subscribed: even though it forwards
  // digests, it must never request events for itself.
  GossipHarness h(3, Algorithm::Push);
  h.subscribe_and_settle({{0, 1}, {2, 1}});
  h.start_recovery();
  const EventPtr e = h.net().node(NodeId{0}).publish({Pattern{1}});
  h.drop_event_on_link(NodeId{0}, NodeId{1}, e->id());
  h.run_for(2.0);
  EXPECT_EQ(h.protocol(1)->stats().requests_sent, 0u);
  // 2 never got the event either (it died on the first hop), but push
  // still recovers it at 2 straight from the publisher's digests.
  EXPECT_TRUE(h.delivered(2, e->id()));
}

TEST(Push, SkipsRoundsWithEmptyCache) {
  GossipHarness h(3, Algorithm::Push);
  h.subscribe_and_settle({{0, 1}, {2, 1}});
  h.start_recovery();
  h.run_for(1.0);  // nothing was ever published
  EXPECT_GT(h.protocol(0)->stats().rounds, 20u);
  EXPECT_EQ(h.protocol(0)->stats().digests_originated, 0u);
  EXPECT_EQ(h.stats().snapshot().gossip_sends(), 0u);
}

TEST(Push, DigestsFollowSubscriptionRoutesOnly) {
  // 5-node line, subscribers at 0 and 1 only: digests about p must never
  // travel beyond node 1 towards 4 (no routes point there).
  GossipHarness h(5, Algorithm::Push);
  h.subscribe_and_settle({{0, 1}, {1, 1}});
  h.start_recovery();
  h.net().node(NodeId{0}).publish({Pattern{1}});
  h.run_for(1.0);
  EXPECT_EQ(h.stats().gossip_sends_by(NodeId{3}), 0u);
  EXPECT_EQ(h.stats().gossip_sends_by(NodeId{4}), 0u);
}

TEST(Push, RecoversAcrossLongerPaths) {
  // 6-node line with subscribers at the two ends.
  GossipHarness h(6, Algorithm::Push);
  h.subscribe_and_settle({{0, 1}, {5, 1}});
  h.start_recovery();
  const EventPtr e = h.net().node(NodeId{0}).publish({Pattern{1}});
  h.drop_event_on_link(NodeId{4}, NodeId{5}, e->id());
  h.run_for(3.0);
  EXPECT_TRUE(h.recovered(5, e->id()));
}

TEST(Push, ManyDroppedEventsAllRecovered) {
  GossipHarness h(3, Algorithm::Push);
  h.subscribe_and_settle({{0, 1}, {2, 1}});
  h.start_recovery();
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    const EventPtr e = h.net().node(NodeId{0}).publish({Pattern{1}});
    if (i % 2 == 0) h.drop_event_on_link(NodeId{1}, NodeId{2}, e->id());
    ids.push_back(e->id());
    h.run_for(0.05);
  }
  h.run_for(3.0);
  for (const EventId& id : ids) {
    EXPECT_TRUE(h.delivered(2, id));
  }
}

TEST(Push, MaxHopsBoundsDigestTravel) {
  // With a 1-hop TTL, digests from the publisher cannot cross the 5-link
  // line to the far subscriber; with a generous TTL they can.
  for (const std::uint32_t max_hops : {1u, 16u}) {
    GossipConfig g = GossipHarness::default_gossip();
    g.max_hops = max_hops;
    g.forward_probability = 1.0;  // determinism: only the TTL varies
    GossipHarness h(6, Algorithm::Push, g);
    h.subscribe_and_settle({{0, 1}, {5, 1}});
    h.start_recovery();
    const EventPtr e = h.net().node(NodeId{0}).publish({Pattern{1}});
    h.drop_event_on_link(NodeId{4}, NodeId{5}, e->id());
    h.run_for(2.0);
    if (max_hops == 1u) {
      EXPECT_FALSE(h.recovered(5, e->id())) << "ttl=" << max_hops;
    } else {
      EXPECT_TRUE(h.recovered(5, e->id())) << "ttl=" << max_hops;
    }
  }
}

TEST(Push, DigestAdvertisesEveryCachedEvent) {
  GossipConfig g = GossipHarness::default_gossip();
  g.forward_probability = 1.0;
  GossipHarness h(2, Algorithm::Push, g);
  h.subscribe_and_settle({{0, 1}, {1, 1}});

  // Fill the publisher's cache with 5 events, all dropped towards node 1.
  h.drop_all_events_on_link(NodeId{0}, NodeId{1});
  std::vector<EventId> ids;
  for (int i = 0; i < 5; ++i) {
    const EventPtr e = h.net().node(NodeId{0}).publish({Pattern{1}});
    ids.push_back(e->id());
    h.run_for(0.01);
  }
  h.start_recovery();
  h.run_for(1.5);
  // Digests are uncapped (the paper's choice): every cached id is
  // advertised, so every event is recovered.
  for (const EventId& id : ids) EXPECT_TRUE(h.delivered(1, id));
}

TEST(Push, StopHaltsGossip) {
  GossipHarness h(3, Algorithm::Push);
  h.subscribe_and_settle({{0, 1}, {2, 1}});
  h.start_recovery();
  h.net().node(NodeId{0}).publish({Pattern{1}});
  h.run_for(0.5);
  const auto rounds = h.protocol(0)->stats().rounds;
  EXPECT_GT(rounds, 0u);
  h.net().for_each([](Dispatcher& d) { d.recovery()->stop(); });
  h.run_for(1.0);
  EXPECT_EQ(h.protocol(0)->stats().rounds, rounds);
}

TEST(Push, AdaptiveIntervalBacksOffWhenIdle) {
  GossipConfig g = GossipHarness::default_gossip();
  g.adaptive.enabled = true;
  g.adaptive.min_interval = Duration::millis(10);
  g.adaptive.max_interval = Duration::millis(200);
  GossipHarness h(3, Algorithm::Push, g);
  h.subscribe_and_settle({{0, 1}, {2, 1}});
  h.start_recovery();
  h.net().node(NodeId{0}).publish({Pattern{1}});
  h.run_for(3.0);
  // Nothing was lost, so no requests arrive and the interval backs off to
  // its maximum: far fewer rounds than 3 s / 10 ms = 300.
  EXPECT_LT(h.protocol(0)->stats().rounds, 120u);
  EXPECT_EQ(h.protocol(0)->current_interval(), Duration::millis(200));
}

TEST(Push, AdaptiveRoundsAreNotTakenForRoutePathDuplicates) {
  // 0 — 1 — 2, both ends caching the one event, so every round at 0 and at
  // 2 hands node 1 a digest with the same content as the round before.
  // Rounds run 10 ms apart, a third of T: the duplicate filter, meant for
  // copies of one digest arriving along several route paths, must still
  // let node 1 forward each of them.
  GossipConfig g = GossipHarness::default_gossip();
  g.adaptive.enabled = true;
  g.adaptive.min_interval = Duration::millis(10);
  g.adaptive.max_interval = Duration::millis(10);
  GossipHarness h(3, Algorithm::Push, g);
  h.subscribe_and_settle({{0, 1}, {2, 1}});
  h.net().node(NodeId{0}).publish({Pattern{1}});
  h.start_recovery();
  h.run_for(1.0);

  const std::uint64_t originated =
      h.protocol(0)->stats().digests_originated +
      h.protocol(2)->stats().digests_originated;
  const std::uint64_t forwarded = h.protocol(1)->stats().digests_forwarded;
  EXPECT_GT(originated, 150u);
  // At most the last digest of each end is still on its way to node 1.
  EXPECT_LE(forwarded, originated);
  EXPECT_GE(forwarded + 2, originated);
}

TEST(Push, ColdRestartForgetsFilteredDigestsLikeAFreshNode) {
  // Node 1 relays node 0's digests for pattern 1 to node 2. Like any node,
  // it relays the first copy of a digest and filters a second one within
  // the dedup window; a cold restart forgets every digest, so the node
  // then answers the same copies as a fresh node does.
  GossipHarness h(3, Algorithm::Push);
  h.subscribe_and_settle({{0, 1}, {2, 1}});
  const MessagePtr digest = std::make_shared<PushDigestMessage>(
      NodeId{0}, 200, Pattern{1},
      std::vector<EventId>{EventId{NodeId{0}, 7}}, 1);
  GossipProtocolBase* relay = h.protocol(1);
  const auto relay_twice = [&] {
    const std::uint64_t before = relay->stats().digests_forwarded;
    relay->on_gossip(NodeId{0}, digest);
    relay->on_gossip(NodeId{0}, digest);
    return relay->stats().digests_forwarded - before;
  };
  EXPECT_EQ(relay_twice(), 1u);
  EXPECT_EQ(relay_twice(), 0u);  // both copies are repeats now
  relay->on_restart(fault::RestartPolicy::Warm);
  EXPECT_EQ(relay_twice(), 0u);  // a warm restart keeps the table
  relay->on_restart(fault::RestartPolicy::Cold);
  EXPECT_EQ(relay_twice(), 1u);
  EXPECT_EQ(relay_twice(), 0u);
}

TEST(NoRecoveryProtocol, DoesNothing) {
  GossipHarness h(3, Algorithm::NoRecovery);
  h.subscribe_and_settle({{0, 1}, {2, 1}});
  // NoRecovery has no start(); publishing with a drop stays lost.
  const EventPtr e = h.net().node(NodeId{0}).publish({Pattern{1}});
  h.drop_event_on_link(NodeId{1}, NodeId{2}, e->id());
  h.run_for(2.0);
  EXPECT_FALSE(h.delivered(2, e->id()));
  EXPECT_EQ(h.stats().snapshot().gossip_sends(), 0u);
}

}  // namespace
}  // namespace epicast
