// Tests for the TraceLog debugging facility.
#include "epicast/metrics/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "epicast/metrics/message_stats.hpp"
#include "epicast/pubsub/network.hpp"

namespace epicast {
namespace {

struct TraceRig {
  TraceRig()
      : sim(1),
        topo(Topology::line(3)),
        transport(sim, topo, config()),
        trace(sim, 128),
        net(transport, DispatcherConfig{}) {
    transport.add_observer(trace);
    topo.add_change_listener([this](const Link& l, bool added) {
      trace.record_link_change(l, added);
    });
    net.set_delivery_listener(
        [this](NodeId node, const EventPtr& e, bool recovered) {
          trace.record_delivery(node, e->id(), recovered);
        });
  }

  static TransportConfig config() {
    TransportConfig c;
    c.link.loss_rate = 0.0;
    return c;
  }

  void run(double s) { sim.run_until(sim.now() + Duration::seconds(s)); }

  Simulator sim;
  Topology topo;
  Transport transport;
  TraceLog trace;
  PubSubNetwork net;
};

TEST(TraceLog, RecordsSendsAndDeliveries) {
  TraceRig rig;
  rig.net.node(NodeId{2}).subscribe(Pattern{1});
  rig.run(0.5);
  rig.trace.clear();

  const EventPtr e = rig.net.node(NodeId{0}).publish({Pattern{1}});
  rig.run(0.5);

  const auto sends = rig.trace.of_kind(TraceKind::Send);
  ASSERT_EQ(sends.size(), 2u);  // 0→1 and 1→2
  EXPECT_EQ(sends[0].from, NodeId{0});
  EXPECT_EQ(sends[0].to, NodeId{1});
  EXPECT_TRUE(sends[0].overlay);
  ASSERT_TRUE(sends[0].event.has_value());
  EXPECT_EQ(*sends[0].event, e->id());

  const auto deliveries = rig.trace.of_kind(TraceKind::Delivery);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].from, NodeId{2});
  EXPECT_FALSE(deliveries[0].flag);  // not recovered
}

TEST(TraceLog, HistoryOfFollowsOneEvent) {
  TraceRig rig;
  rig.net.node(NodeId{2}).subscribe(Pattern{1});
  rig.run(0.5);
  rig.trace.clear();

  const EventPtr a = rig.net.node(NodeId{0}).publish({Pattern{1}});
  const EventPtr b = rig.net.node(NodeId{0}).publish({Pattern{1}});
  rig.run(0.5);

  const auto history = rig.trace.history_of(a->id());
  ASSERT_EQ(history.size(), 3u);  // 2 sends + 1 delivery
  for (const TraceRecord& r : history) {
    EXPECT_EQ(*r.event, a->id());
  }
  EXPECT_EQ(rig.trace.history_of(b->id()).size(), 3u);
}

TEST(TraceLog, RecordsLinkChangesAndStaleDrops) {
  TraceRig rig;
  rig.net.node(NodeId{2}).subscribe(Pattern{1});
  rig.run(0.5);
  rig.trace.clear();

  rig.topo.remove_link(NodeId{1}, NodeId{2});
  rig.net.node(NodeId{0}).publish({Pattern{1}});
  rig.run(0.5);

  const auto changes = rig.trace.of_kind(TraceKind::LinkChange);
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_FALSE(changes[0].flag);  // removed
  EXPECT_EQ(rig.trace.of_kind(TraceKind::StaleDrop).size(), 1u);
}

TEST(TraceLog, RingDropsOldest) {
  TraceRig rig;
  TraceLog small(rig.sim, 4);
  for (int i = 0; i < 10; ++i) {
    small.record_delivery(NodeId{static_cast<std::uint32_t>(i)},
                          EventId{NodeId{0}, static_cast<std::uint64_t>(i)},
                          false);
  }
  EXPECT_EQ(small.records().size(), 4u);
  EXPECT_EQ(small.dropped_records(), 6u);
  EXPECT_EQ(small.records().front().event->source_seq, 6u);
}

TEST(TraceLog, DumpIsHumanReadable) {
  TraceRig rig;
  rig.net.node(NodeId{2}).subscribe(Pattern{1});
  rig.run(0.5);
  rig.net.node(NodeId{0}).publish({Pattern{1}});
  rig.run(0.5);

  std::ostringstream os;
  rig.trace.dump(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("send"), std::string::npos);
  EXPECT_NE(text.find("delivery"), std::string::npos);
  EXPECT_NE(text.find("event(0,0)"), std::string::npos);

  std::ostringstream capped;
  rig.trace.dump(capped, 1);
  EXPECT_NE(capped.str().find("more)"), std::string::npos);
}

TEST(TraceLog, CoexistsWithMessageStats) {
  TraceRig rig;
  MessageStats stats(3);
  rig.transport.add_observer(stats);  // second observer
  rig.net.node(NodeId{2}).subscribe(Pattern{1});
  rig.run(0.5);
  rig.net.node(NodeId{0}).publish({Pattern{1}});
  rig.run(0.5);
  EXPECT_EQ(stats.snapshot().sends_of(MessageClass::Event), 2u);
  EXPECT_GE(rig.trace.of_kind(TraceKind::Send).size(), 2u);
}

}  // namespace
}  // namespace epicast
