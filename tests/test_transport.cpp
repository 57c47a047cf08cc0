// Unit tests for the transport layer: overlay delivery with queueing and
// loss, stale-route drops, in-flight link breakage, the out-of-band channel,
// observer accounting, and fault injection.
#include "epicast/net/transport.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "epicast/metrics/message_stats.hpp"
#include "epicast/net/topology.hpp"
#include "epicast/sim/simulator.hpp"

namespace epicast {
namespace {

class TestMessage final : public Message {
 public:
  explicit TestMessage(MessageClass cls, std::size_t bytes = 100)
      : cls_(cls), bytes_(bytes) {}
  MessageClass message_class() const override { return cls_; }
  std::size_t size_bytes() const override { return bytes_; }

 private:
  MessageClass cls_;
  std::size_t bytes_;
};

struct Received {
  NodeId from;
  bool overlay;
  MessageClass cls;
};

class Sink final : public TransportReceiver {
 public:
  void on_overlay_message(NodeId from, const MessagePtr& msg) override {
    received.push_back({from, true, msg->message_class()});
  }
  void on_direct_message(NodeId from, const MessagePtr& msg) override {
    received.push_back({from, false, msg->message_class()});
  }
  std::vector<Received> received;
};

class TransportTest : public ::testing::Test {
 protected:
  TransportTest()
      : sim_(1), topo_(Topology::line(3)), transport_(sim_, topo_, config()) {
    for (std::uint32_t i = 0; i < 3; ++i) {
      transport_.attach(NodeId{i}, sinks_[i]);
    }
    transport_.add_observer(stats_);
  }

  static TransportConfig config() {
    TransportConfig c;
    c.link.loss_rate = 0.0;
    c.direct_loss_rate = 0.0;
    return c;
  }

  Simulator sim_;
  Topology topo_;
  Transport transport_;
  Sink sinks_[3];
  MessageStats stats_{3};
};

TEST_F(TransportTest, OverlayDeliversToNeighbor) {
  transport_.send_overlay(NodeId{0}, NodeId{1},
                          std::make_shared<TestMessage>(MessageClass::Event));
  sim_.run();
  ASSERT_EQ(sinks_[1].received.size(), 1u);
  EXPECT_EQ(sinks_[1].received[0].from, NodeId{0});
  EXPECT_TRUE(sinks_[1].received[0].overlay);
  EXPECT_GT(sim_.now(), SimTime::zero());  // took serialization+propagation
}

TEST_F(TransportTest, OverlayToNonNeighborIsDropped) {
  transport_.send_overlay(NodeId{0}, NodeId{2},
                          std::make_shared<TestMessage>(MessageClass::Event));
  sim_.run();
  EXPECT_TRUE(sinks_[2].received.empty());
  EXPECT_EQ(stats_.snapshot().drops_no_link, 1u);
  EXPECT_EQ(stats_.snapshot().sends_of(MessageClass::Event), 1u);
}

TEST_F(TransportTest, InFlightMessageDiesWithItsLink) {
  transport_.send_overlay(NodeId{0}, NodeId{1},
                          std::make_shared<TestMessage>(MessageClass::Event));
  // The message is on the wire; break the link before it lands.
  topo_.remove_link(NodeId{0}, NodeId{1});
  sim_.run();
  EXPECT_TRUE(sinks_[1].received.empty());
  EXPECT_EQ(stats_.snapshot().drops_no_link, 1u);
}

TEST_F(TransportTest, DirectChannelIgnoresTopology) {
  transport_.send_direct(
      NodeId{0}, NodeId{2},
      std::make_shared<TestMessage>(MessageClass::GossipRequest));
  sim_.run();
  ASSERT_EQ(sinks_[2].received.size(), 1u);
  EXPECT_FALSE(sinks_[2].received[0].overlay);
  EXPECT_EQ(stats_.snapshot().direct_sends, 1u);
}

TEST_F(TransportTest, FaultFilterDropsSelectedMessages) {
  transport_.add_fault_filter([](NodeId from, NodeId, const Message&, bool) {
    return from != NodeId{0};  // drop everything node 0 sends
  });
  transport_.send_overlay(NodeId{0}, NodeId{1},
                          std::make_shared<TestMessage>(MessageClass::Event));
  transport_.send_overlay(NodeId{1}, NodeId{2},
                          std::make_shared<TestMessage>(MessageClass::Event));
  sim_.run();
  EXPECT_TRUE(sinks_[1].received.empty());
  ASSERT_EQ(sinks_[2].received.size(), 1u);
  EXPECT_EQ(stats_.snapshot().losses_of(MessageClass::Event), 1u);
}

TEST_F(TransportTest, FaultFiltersCompose) {
  // Two stacked filters: either one saying "drop" drops the message, and
  // both keep being consulted after the other fires.
  transport_.add_fault_filter([](NodeId from, NodeId, const Message&, bool) {
    return from != NodeId{0};
  });
  transport_.add_fault_filter([](NodeId, NodeId to, const Message&, bool) {
    return to != NodeId{2};
  });
  transport_.send_overlay(NodeId{0}, NodeId{1},
                          std::make_shared<TestMessage>(MessageClass::Event));
  transport_.send_overlay(NodeId{1}, NodeId{2},
                          std::make_shared<TestMessage>(MessageClass::Event));
  transport_.send_overlay(NodeId{1}, NodeId{0},
                          std::make_shared<TestMessage>(MessageClass::Event));
  sim_.run();
  EXPECT_TRUE(sinks_[1].received.empty());  // first filter dropped 0→1
  EXPECT_TRUE(sinks_[2].received.empty());  // second filter dropped 1→2
  ASSERT_EQ(sinks_[0].received.size(), 1u);  // 1→0 passes both
}

TEST_F(TransportTest, ObserverCountsPerClass) {
  transport_.send_overlay(NodeId{0}, NodeId{1},
                          std::make_shared<TestMessage>(MessageClass::Event));
  transport_.send_overlay(
      NodeId{0}, NodeId{1},
      std::make_shared<TestMessage>(MessageClass::GossipDigest));
  transport_.send_direct(
      NodeId{1}, NodeId{2},
      std::make_shared<TestMessage>(MessageClass::GossipReply));
  sim_.run();
  const auto snap = stats_.snapshot();
  EXPECT_EQ(snap.sends_of(MessageClass::Event), 1u);
  EXPECT_EQ(snap.sends_of(MessageClass::GossipDigest), 1u);
  EXPECT_EQ(snap.sends_of(MessageClass::GossipReply), 1u);
  EXPECT_EQ(snap.gossip_sends(), 2u);
  EXPECT_EQ(snap.overlay_sends, 2u);
  EXPECT_EQ(snap.direct_sends, 1u);
}

TEST(TransportLoss, LossyOverlayDropsStatistically) {
  Simulator sim(3);
  Topology topo = Topology::line(2);
  TransportConfig cfg;
  cfg.link.loss_rate = 0.2;
  Transport transport(sim, topo, cfg);
  Sink a, b;
  transport.attach(NodeId{0}, a);
  transport.attach(NodeId{1}, b);

  constexpr int kSends = 20'000;
  for (int i = 0; i < kSends; ++i) {
    transport.send_overlay(NodeId{0}, NodeId{1},
                           std::make_shared<TestMessage>(MessageClass::Event,
                                                         10));
  }
  sim.run();
  EXPECT_NEAR(static_cast<double>(b.received.size()) / kSends, 0.8, 0.02);
}

TEST(TransportLoss, ControlIsLossless) {
  Simulator sim(3);
  Topology topo = Topology::line(2);
  TransportConfig cfg;
  cfg.link.loss_rate = 0.5;
  Transport transport(sim, topo, cfg);
  Sink a, b;
  transport.attach(NodeId{0}, a);
  transport.attach(NodeId{1}, b);
  for (int i = 0; i < 500; ++i) {
    transport.send_overlay(
        NodeId{0}, NodeId{1},
        std::make_shared<TestMessage>(MessageClass::Control, 10));
  }
  sim.run();
  EXPECT_EQ(b.received.size(), 500u);
}

TEST(TransportLoss, DirectChannelLossIsIndependent) {
  Simulator sim(5);
  Topology topo = Topology::line(2);
  TransportConfig cfg;
  cfg.link.loss_rate = 0.0;
  cfg.direct_loss_rate = 0.3;
  Transport transport(sim, topo, cfg);
  Sink a, b;
  transport.attach(NodeId{0}, a);
  transport.attach(NodeId{1}, b);
  constexpr int kSends = 20'000;
  for (int i = 0; i < kSends; ++i) {
    transport.send_direct(
        NodeId{0}, NodeId{1},
        std::make_shared<TestMessage>(MessageClass::GossipReply, 10));
  }
  sim.run();
  EXPECT_NEAR(static_cast<double>(b.received.size()) / kSends, 0.7, 0.02);
}

TEST(TransportDeterminism, SameSeedSameDeliverySet) {
  auto run = [](std::uint64_t seed) {
    Simulator sim(seed);
    Topology topo = Topology::line(2);
    TransportConfig cfg;
    cfg.link.loss_rate = 0.3;
    Transport transport(sim, topo, cfg);
    Sink a, b;
    transport.attach(NodeId{0}, a);
    transport.attach(NodeId{1}, b);
    for (int i = 0; i < 200; ++i) {
      transport.send_overlay(
          NodeId{0}, NodeId{1},
          std::make_shared<TestMessage>(MessageClass::Event, 10));
    }
    sim.run();
    return b.received.size();
  };
  EXPECT_EQ(run(123), run(123));
}

}  // namespace
}  // namespace epicast
