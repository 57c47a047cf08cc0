// Behavioural tests for the pull family (§III-B): loss detection through
// sequence gaps, subscriber-based steering, publisher-based steering with
// route truncation and short-circuiting, the combined mix, and the random
// control.
#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "epicast/gossip/combined_pull.hpp"
#include "epicast/gossip/publisher_pull.hpp"
#include "epicast/gossip/pull_base.hpp"
#include "epicast/gossip/random_pull.hpp"
#include "epicast/gossip/subscriber_pull.hpp"
#include "gossip_harness.hpp"

namespace epicast {
namespace {

using testing::GossipHarness;

/// Publishes e0 (initializes sequence expectations everywhere), then e1
/// which is dropped on `from`→`to`, then e2 which reveals the gap.
/// Returns e1's id.
EventId publish_with_gap(GossipHarness& h, std::uint32_t publisher,
                         std::uint32_t pattern, NodeId from, NodeId to) {
  auto& pub = h.net().node(NodeId{publisher});
  (void)pub.publish({Pattern{pattern}});
  h.run_for(0.1);
  const EventPtr lost = pub.publish({Pattern{pattern}});
  h.drop_event_on_link(from, to, lost->id());
  h.run_for(0.1);
  (void)pub.publish({Pattern{pattern}});
  h.run_for(0.1);
  return lost->id();
}

PullProtocolBase* pull(GossipHarness& h, std::uint32_t node) {
  auto* p = dynamic_cast<PullProtocolBase*>(h.protocol(node));
  EXPECT_NE(p, nullptr);
  return p;
}

TEST(PullDetection, GapPopulatesLostBuffer) {
  GossipHarness h(3, Algorithm::SubscriberPull);
  h.subscribe_and_settle({{0, 1}, {2, 1}});
  // Recovery attached but not started: detection is passive.
  const EventId lost_id = publish_with_gap(h, 0, 1, NodeId{1}, NodeId{2});
  EXPECT_EQ(pull(h, 2)->lost().size(), 1u);
  EXPECT_TRUE(pull(h, 2)->lost().contains(
      LostEntryInfo{NodeId{0}, Pattern{1}, SeqNo{2}}));
  EXPECT_FALSE(h.delivered(2, lost_id));
  // Node 0 (which received everything it published) detected nothing.
  EXPECT_TRUE(pull(h, 0)->lost().empty());
}

TEST(PullDetection, PreloadedSnapshotSeedsTheWatermarks) {
  // A warm-restarted daemon refills its cache from the snapshot; the pull
  // layer must also lift its loss watermarks to the snapshot's sequence
  // numbers so the outage window reads as a gap, not a fresh baseline.
  GossipHarness h(3, Algorithm::SubscriberPull);
  h.subscribe_and_settle({{0, 1}, {2, 1}});
  const EventPtr snap = std::make_shared<EventData>(
      EventId{NodeId{0}, 0},
      std::vector<PatternSeq>{{Pattern{1}, SeqNo{6}}}, 64, SimTime::zero());
  pull(h, 2)->preload_cache({snap});
  EXPECT_EQ(pull(h, 2)->detector().high_watermark(NodeId{0}, Pattern{1}),
            SeqNo{6});
  EXPECT_TRUE(pull(h, 2)->cache().contains(snap->id()));
}

TEST(PullDetection, StreamMarksRevealLossesGapsCannotSee) {
  // The tail of a stream: the last event is lost, and no successor will
  // ever reveal the gap. A neighbour's heartbeat watermark must.
  GossipHarness h(3, Algorithm::SubscriberPull);
  h.subscribe_and_settle({{0, 1}, {2, 1}});
  auto& pub = h.net().node(NodeId{0});
  (void)pub.publish({Pattern{1}});  // seq 1: baselines everyone
  h.run_for(0.1);
  EXPECT_EQ(pull(h, 2)->detector().high_watermark(NodeId{0}, Pattern{1}),
            SeqNo{1});
  // Node 2 hears (via heartbeat piggyback) that seqs up to 3 exist.
  pull(h, 2)->on_stream_marks({{NodeId{0}, Pattern{1}, SeqNo{3}}});
  EXPECT_TRUE(pull(h, 2)->lost().contains(
      LostEntryInfo{NodeId{0}, Pattern{1}, SeqNo{2}}));
  EXPECT_TRUE(pull(h, 2)->lost().contains(
      LostEntryInfo{NodeId{0}, Pattern{1}, SeqNo{3}}));
  EXPECT_EQ(pull(h, 2)->detector().high_watermark(NodeId{0}, Pattern{1}),
            SeqNo{3});
  // A stale or equal mark changes nothing.
  pull(h, 2)->on_stream_marks({{NodeId{0}, Pattern{1}, SeqNo{2}}});
  EXPECT_EQ(pull(h, 2)->lost().size(), 2u);
}

TEST(PullDetection, StreamMarksBackfillUnknownStreamsFromOne) {
  GossipHarness h(3, Algorithm::SubscriberPull);
  h.subscribe_and_settle({{0, 1}, {2, 1}});
  // Node 2 has never heard from source 1 on pattern 1 — the stream's head
  // was lost. Sequence numbers start at 1 by construction, so a mark pins
  // down the missing range exactly; no unknowable history here.
  pull(h, 2)->on_stream_marks({{NodeId{1}, Pattern{1}, SeqNo{2}}});
  EXPECT_EQ(pull(h, 2)->lost().size(), 2u);
  EXPECT_TRUE(pull(h, 2)->lost().contains(
      LostEntryInfo{NodeId{1}, Pattern{1}, SeqNo{1}}));
  EXPECT_EQ(pull(h, 2)->detector().high_watermark(NodeId{1}, Pattern{1}),
            SeqNo{2});
  // Marks for patterns without a local subscription are ignored outright.
  pull(h, 2)->on_stream_marks({{NodeId{0}, Pattern{2}, SeqNo{5}}});
  EXPECT_EQ(pull(h, 2)->detector().high_watermark(NodeId{0}, Pattern{2}),
            SeqNo{0});
}

TEST(PullDetection, StreamMarkBackfillIsClampedLikeTheGapDetector) {
  GossipHarness h(3, Algorithm::SubscriberPull);
  h.subscribe_and_settle({{0, 1}, {2, 1}});
  const std::uint64_t clamp = PullProtocolBase::kMaxGapReport;
  pull(h, 2)->on_stream_marks(
      {{NodeId{1}, Pattern{1}, SeqNo{clamp + 100}}});
  EXPECT_EQ(pull(h, 2)->lost().size(), clamp);
  EXPECT_FALSE(pull(h, 2)->lost().contains(
      LostEntryInfo{NodeId{1}, Pattern{1}, SeqNo{100}}));
  EXPECT_TRUE(pull(h, 2)->lost().contains(
      LostEntryInfo{NodeId{1}, Pattern{1}, SeqNo{101}}));
}

TEST(PullDetection, StreamMarksRotateThroughTheWitnessedTable) {
  GossipHarness h(3, Algorithm::SubscriberPull);
  h.subscribe_and_settle({{0, 1}, {0, 2}, {2, 1}, {2, 2}});
  pull(h, 1)->witness_streams();
  auto& pub = h.net().node(NodeId{0});
  (void)pub.publish({Pattern{1}});
  (void)pub.publish({Pattern{2}});
  h.run_for(0.1);
  // Node 1 forwarded both events; its witnessed table covers both streams
  // even though it subscribes to neither (a mark is knowledge, not stock).
  std::vector<StreamMark> out;
  std::size_t cursor = pull(h, 1)->stream_marks_into(0, 1, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(cursor, 1u);
  cursor = pull(h, 1)->stream_marks_into(cursor, 1, out);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(cursor, 0u);  // wrapped
  EXPECT_NE(out[0].pattern, out[1].pattern);
  EXPECT_EQ(out[0].source, NodeId{0});
  // Asking for more than exists yields each entry exactly once.
  out.clear();
  (void)pull(h, 1)->stream_marks_into(0, 99, out);
  EXPECT_EQ(out.size(), 2u);
}

TEST(PullDetection, StreamMarksLapReachesAStreamWitnessedMidLap) {
  // One lap of max_entries=1 calls returns every witnessed mark exactly
  // once — including a stream first witnessed partway through the lap,
  // which is appended and reached before the cursor wraps (an ordered
  // table would slot (0, 0) in behind the cursor and skip it).
  GossipHarness h(3, Algorithm::SubscriberPull);
  GossipProtocolBase* node = h.protocol(1);
  node->witness_streams();
  const auto witness = [node](std::uint32_t source, std::uint32_t pattern,
                              std::uint64_t seq) {
    node->preload_cache({std::make_shared<EventData>(
        EventId{NodeId{source}, seq},
        std::vector<PatternSeq>{{Pattern{pattern}, SeqNo{seq}}}, 64,
        SimTime::zero())});
  };
  witness(0, 1, 3);
  witness(2, 1, 4);
  witness(0, 2, 5);
  std::vector<StreamMark> out;
  std::size_t cursor = node->stream_marks_into(0, 1, out);
  witness(0, 0, 6);  // new stream, mid-lap
  witness(0, 1, 7);  // known stream advances in place
  for (int calls = 1; cursor != 0; ++calls) {
    ASSERT_LT(calls, 4) << "the lap did not wrap after one call per mark";
    cursor = node->stream_marks_into(cursor, 1, out);
  }
  ASSERT_EQ(out.size(), 4u);
  std::set<std::pair<std::uint32_t, std::uint32_t>> streams;
  for (const StreamMark& m : out) {
    streams.emplace(m.source.value(), m.pattern.value());
  }
  EXPECT_EQ(streams, (std::set<std::pair<std::uint32_t, std::uint32_t>>{
                         {0, 0}, {0, 1}, {0, 2}, {2, 1}}));
  EXPECT_EQ(out.back(), (StreamMark{NodeId{0}, Pattern{0}, SeqNo{6}}));
  // The next lap reads the advanced watermark.
  out.clear();
  (void)node->stream_marks_into(0, 1, out);
  EXPECT_EQ(out.front(), (StreamMark{NodeId{0}, Pattern{1}, SeqNo{7}}));

  // A warm restart keeps the marks; a cold one forgets them.
  node->on_restart(fault::RestartPolicy::Warm);
  out.clear();
  EXPECT_EQ(node->stream_marks_into(0, 99, out), 0u);
  EXPECT_EQ(out.size(), 4u);
  node->on_restart(fault::RestartPolicy::Cold);
  out.clear();
  EXPECT_EQ(node->stream_marks_into(0, 99, out), 0u);
  EXPECT_TRUE(out.empty());
  witness(2, 3, 8);
  EXPECT_EQ(node->stream_marks_into(0, 99, out), 0u);
  EXPECT_EQ(out, (std::vector<StreamMark>{{NodeId{2}, Pattern{3}, SeqNo{8}}}));
}

TEST(PullDetection, StreamMarksAreNotRecordedUntilAReaderAsks) {
  // Nothing in a simulation run reads the witnessed marks, so a protocol
  // nobody asked records none: not for events it forwards, not for events
  // it caches as a subscriber or publisher, not for a preloaded snapshot.
  GossipHarness h(3, Algorithm::SubscriberPull);
  h.subscribe_and_settle({{0, 1}, {0, 2}, {2, 1}, {2, 2}});
  auto& pub = h.net().node(NodeId{0});
  (void)pub.publish({Pattern{1}});
  (void)pub.publish({Pattern{2}});
  h.run_for(0.1);
  pull(h, 1)->preload_cache({std::make_shared<EventData>(
      EventId{NodeId{2}, 0}, std::vector<PatternSeq>{{Pattern{1}, SeqNo{4}}},
      64, SimTime::zero())});
  for (std::uint32_t node = 0; node < 3; ++node) {
    std::vector<StreamMark> out;
    EXPECT_EQ(pull(h, node)->stream_marks_into(0, 99, out), 0u) << node;
    EXPECT_TRUE(out.empty()) << "node " << node << " recorded marks";
  }
  // The events themselves went through as before: the subscriber cached
  // both and the forwarder holds the preloaded one.
  EXPECT_EQ(pull(h, 2)->cache().size(), 2u);
  EXPECT_EQ(pull(h, 1)->cache().size(), 1u);

  // Asking starts the record with the next event; earlier ones stay unseen.
  pull(h, 1)->witness_streams();
  (void)pub.publish({Pattern{2}});
  h.run_for(0.1);
  std::vector<StreamMark> out;
  (void)pull(h, 1)->stream_marks_into(0, 99, out);
  EXPECT_EQ(out, (std::vector<StreamMark>{{NodeId{0}, Pattern{2}, SeqNo{2}}}));
}

TEST(PullDetection, NonSubscribersDoNotDetect) {
  GossipHarness h(3, Algorithm::SubscriberPull);
  h.subscribe_and_settle({{0, 1}, {2, 1}});
  (void)publish_with_gap(h, 0, 1, NodeId{1}, NodeId{2});
  EXPECT_TRUE(pull(h, 1)->lost().empty());  // node 1 only routes
}

TEST(SubscriberPull, RecoversFromOtherSubscribersCache) {
  // 0 — 1 — 2; both ends subscribe. 2 misses an event, learns of it from
  // the gap, pulls along the route towards 0, which holds it.
  GossipHarness h(3, Algorithm::SubscriberPull);
  h.subscribe_and_settle({{0, 1}, {2, 1}});
  h.start_recovery();
  const EventId lost_id = publish_with_gap(h, 0, 1, NodeId{1}, NodeId{2});
  h.run_for(2.0);
  EXPECT_TRUE(h.recovered(2, lost_id));
  EXPECT_TRUE(pull(h, 2)->lost().empty());  // bookkeeping cleaned up
  EXPECT_GT(h.protocol(0)->stats().events_served, 0u);
}

TEST(SubscriberPull, SoleSubscriberCannotRecover) {
  // Only node 2 subscribes to p: its subscriber digests have nowhere to go
  // (no routes exist at node 2), exactly the weakness the paper describes.
  GossipHarness h(3, Algorithm::SubscriberPull);
  h.subscribe_and_settle({{2, 1}});
  h.start_recovery();
  const EventId lost_id = publish_with_gap(h, 0, 1, NodeId{1}, NodeId{2});
  h.run_for(2.0);
  EXPECT_FALSE(h.delivered(2, lost_id));
  EXPECT_EQ(h.protocol(2)->stats().digests_originated, 0u);
}

TEST(PublisherPull, RecoversFromThePublisher) {
  // Only node 2 subscribes — publisher-based pull handles exactly the case
  // subscriber-based cannot.
  GossipHarness h(3, Algorithm::PublisherPull);
  h.subscribe_and_settle({{2, 1}});
  h.start_recovery();
  const EventId lost_id = publish_with_gap(h, 0, 1, NodeId{1}, NodeId{2});
  h.run_for(2.0);
  EXPECT_TRUE(h.recovered(2, lost_id));
  EXPECT_GT(h.protocol(0)->stats().events_served, 0u);
}

TEST(PublisherPull, IntermediateCacheShortCircuits) {
  // 0 — 1 — 2 — 3; 1 and 3 subscribe to p. 3 misses an event that 1 has
  // cached: the publisher-bound digest must be served by 1 (2 hops away)
  // without ever reaching 0.
  GossipHarness h(4, Algorithm::PublisherPull);
  h.subscribe_and_settle({{1, 1}, {3, 1}});
  h.start_recovery();
  const EventId lost_id = publish_with_gap(h, 0, 1, NodeId{2}, NodeId{3});
  h.run_for(2.0);
  EXPECT_TRUE(h.recovered(3, lost_id));
  EXPECT_GT(h.protocol(1)->stats().events_served +
                h.protocol(2)->stats().events_served +
                h.protocol(0)->stats().events_served,
            0u);
}

TEST(PublisherPull, RoutesBufferTracksPublisher) {
  GossipHarness h(4, Algorithm::PublisherPull);
  h.subscribe_and_settle({{3, 1}});
  (void)h.net().node(NodeId{0}).publish({Pattern{1}});
  h.run_for(0.2);
  EXPECT_TRUE(pull(h, 3)->routes().knows(NodeId{0}));
  EXPECT_EQ(pull(h, 3)->routes().route_to(NodeId{0}),
            (std::vector<NodeId>{NodeId{2}, NodeId{1}, NodeId{0}}));
}

TEST(PublisherPull, SurvivesStaleRouteAfterReconfiguration) {
  // After learning the route, rewire the tree so the recorded next hop is
  // no longer a neighbour; the digest must still reach the publisher via
  // the out-of-band fallback.
  GossipHarness h(4, Algorithm::PublisherPull);
  h.subscribe_and_settle({{3, 1}});
  h.start_recovery();

  auto& pub = h.net().node(NodeId{0});
  (void)pub.publish({Pattern{1}});
  h.run_for(0.2);

  const EventPtr lost = pub.publish({Pattern{1}});
  h.drop_event_on_link(NodeId{2}, NodeId{3}, lost->id());
  h.run_for(0.1);
  (void)pub.publish({Pattern{1}});  // reveals the gap at 3
  h.run_for(0.1);

  // Rewire: 3 detaches from 2 and attaches to 0. Stored route 3→[2,1,0] is
  // now stale in its first hop.
  h.topology().remove_link(NodeId{2}, NodeId{3});
  h.topology().add_link(NodeId{0}, NodeId{3});
  h.net().rebuild_routes();
  h.run_for(2.0);
  EXPECT_TRUE(h.recovered(3, lost->id()));
}

TEST(CombinedPull, RecoversBothScarceAndPopularPatterns) {
  // 5-node line. Pattern 1 has subscribers {0, 4}; pattern 2 only {4}.
  // Combined pull must recover losses of both kinds at node 4.
  GossipHarness h(5, Algorithm::CombinedPull);
  h.subscribe_and_settle({{0, 1}, {4, 1}, {4, 2}});
  h.start_recovery();

  const EventId lost_popular = publish_with_gap(h, 1, 1, NodeId{3}, NodeId{4});
  const EventId lost_scarce = publish_with_gap(h, 1, 2, NodeId{3}, NodeId{4});
  h.run_for(3.0);
  EXPECT_TRUE(h.recovered(4, lost_popular));
  EXPECT_TRUE(h.recovered(4, lost_scarce));
}

TEST(RandomPull, EventuallyRecoversOnSmallNetwork) {
  GossipHarness h(3, Algorithm::RandomPull);
  h.subscribe_and_settle({{0, 1}, {2, 1}});
  h.start_recovery();
  const EventId lost_id = publish_with_gap(h, 0, 1, NodeId{1}, NodeId{2});
  h.run_for(4.0);  // random walks need more rounds
  EXPECT_TRUE(h.recovered(2, lost_id));
}

TEST(PublisherPull, RouteTruncationJumpsOutOfBand) {
  // 6-node line, subscriber only at the far end: the stored route back to
  // the publisher is 5 hops, but kPublisherRouteHops = 2 means the digest
  // visits two neighbours and then jumps straight to the publisher over
  // the out-of-band channel — observable as a direct-channel digest send.
  ASSERT_EQ(PullProtocolBase::kPublisherRouteHops, 2u);
  GossipHarness h(6, Algorithm::PublisherPull);
  h.subscribe_and_settle({{5, 1}});
  h.start_recovery();
  const EventId lost_id = publish_with_gap(h, 0, 1, NodeId{4}, NodeId{5});
  h.run_for(2.0);
  EXPECT_TRUE(h.recovered(5, lost_id));
  // At least one digest used the direct channel (the jump), and digests
  // also travelled the first overlay hops.
  std::uint64_t direct_digests = 0;
  const auto snap = h.stats().snapshot();
  direct_digests = snap.direct_sends - snap.sends_of(MessageClass::GossipReply) -
                   snap.sends_of(MessageClass::GossipRequest);
  EXPECT_GT(direct_digests, 0u);
}

TEST(PublisherPull, ShortRouteIsTraversedInFull) {
  // 4-node line: the stored route back to the publisher is 3 hops, within
  // kPublisherRouteHops + 1, so no hop is skipped: every hop of the route
  // is visited over the overlay; the only direct traffic is the reply.
  GossipHarness h(4, Algorithm::PublisherPull);
  h.subscribe_and_settle({{3, 1}});
  h.start_recovery();
  const EventId lost_id = publish_with_gap(h, 0, 1, NodeId{2}, NodeId{3});
  h.run_for(2.0);
  EXPECT_TRUE(h.recovered(3, lost_id));
  const auto snap = h.stats().snapshot();
  EXPECT_EQ(snap.direct_sends, snap.sends_of(MessageClass::GossipReply) +
                                   snap.sends_of(MessageClass::GossipRequest));
}

TEST(PullRounds, SkipWhenNothingIsLost) {
  for (Algorithm a : {Algorithm::SubscriberPull, Algorithm::PublisherPull,
                      Algorithm::CombinedPull, Algorithm::RandomPull}) {
    GossipHarness h(3, a);
    h.subscribe_and_settle({{0, 1}, {2, 1}});
    h.start_recovery();
    (void)h.net().node(NodeId{0}).publish({Pattern{1}});
    h.run_for(1.0);
    EXPECT_EQ(h.stats().snapshot().gossip_sends(), 0u) << to_string(a);
    EXPECT_GT(h.protocol(2)->stats().rounds_skipped, 0u) << to_string(a);
  }
}

TEST(PullRounds, LostEntriesExpireAfterTtl) {
  GossipConfig g = GossipHarness::default_gossip();
  g.lost_entry_ttl = Duration::seconds(0.5);
  // Sole subscriber + subscriber pull: recovery is impossible, so the
  // entry must eventually be abandoned.
  GossipHarness h(3, Algorithm::SubscriberPull, g);
  h.subscribe_and_settle({{2, 1}});
  h.start_recovery();
  (void)publish_with_gap(h, 0, 1, NodeId{1}, NodeId{2});
  EXPECT_EQ(pull(h, 2)->lost().size(), 1u);
  h.run_for(1.5);
  EXPECT_TRUE(pull(h, 2)->lost().empty());
  EXPECT_GT(pull(h, 2)->lost().stats().expired, 0u);
}

TEST(PullRecovered, RecoveredEventRemovesAllItsLostEntries) {
  // An event matching two locally subscribed patterns creates two Lost
  // entries; its recovery must clear both.
  GossipHarness h(3, Algorithm::CombinedPull);
  h.subscribe_and_settle({{0, 1}, {0, 2}, {2, 1}, {2, 2}});

  // Detection is passive (no rounds yet), so the Lost entries are stable.
  auto& pub = h.net().node(NodeId{0});
  (void)pub.publish({Pattern{1}, Pattern{2}});
  h.run_for(0.1);
  const EventPtr lost = pub.publish({Pattern{1}, Pattern{2}});
  h.drop_event_on_link(NodeId{1}, NodeId{2}, lost->id());
  h.run_for(0.1);
  (void)pub.publish({Pattern{1}, Pattern{2}});
  h.run_for(0.2);
  EXPECT_EQ(pull(h, 2)->lost().size(), 2u);

  h.start_recovery();
  h.run_for(2.0);
  EXPECT_TRUE(h.recovered(2, lost->id()));
  EXPECT_TRUE(pull(h, 2)->lost().empty());
}

}  // namespace
}  // namespace epicast
