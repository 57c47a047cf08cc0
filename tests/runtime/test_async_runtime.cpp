// AsyncRuntime specifics beyond the shared seam conformance: the hard
// wire-sizing requirement (nominal sizing makes no sense over real
// datagrams — the bytes on the wire ARE the codec frames), ephemeral port
// resolution, synthetic inbound loss, and the oracle attachment over real
// traffic — WireRoundTripOracle fed from captured UDP frames.
#include <gtest/gtest.h>

#include <cstdint>
#include <ctime>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "epicast/daemon/node.hpp"
#include "epicast/fault/plan.hpp"
#include "epicast/oracle/checks.hpp"
#include "epicast/oracle/oracle.hpp"
#include "epicast/pubsub/event.hpp"
#include "epicast/pubsub/messages.hpp"
#include "epicast/runtime/async_runtime.hpp"
#include "epicast/runtime/cluster.hpp"

namespace epicast {
namespace {

EventPtr make_event(std::uint32_t source, std::uint64_t seq) {
  return std::make_shared<EventData>(
      EventId{NodeId{source}, seq},
      std::vector<PatternSeq>{{Pattern{2}, SeqNo{seq}}}, 100,
      SimTime::zero());
}

// -- satellite: nominal sizing is a hard configuration error ------------------

runtime::ClusterConfig two_node_cluster() {
  runtime::ClusterConfig cfg;
  cfg.endpoints = {{"127.0.0.1", 0}, {"127.0.0.1", 0}};
  cfg.links = {{NodeId{0}, NodeId{1}}};
  cfg.subscriptions = {{NodeId{1}, Pattern{0}}};
  return cfg;
}

TEST(AsyncRuntimeSizing, NominalSizingIsAHardError) {
  runtime::ClusterConfig cfg = two_node_cluster();
  cfg.sizing = SizingMode::Nominal;
  try {
    cfg.validate();
    FAIL() << "ClusterConfig accepted SizingMode::Nominal";
  } catch (const std::invalid_argument& e) {
    // The message must tell the operator what to change, not just reject.
    const std::string what = e.what();
    EXPECT_NE(what.find("wire"), std::string::npos) << what;
    EXPECT_NE(what.find("nominal"), std::string::npos) << what;
  }
}

TEST(AsyncRuntimeSizing, NodeDaemonRejectsNominalClusterConfig) {
  runtime::ClusterConfig cfg = two_node_cluster();
  cfg.sizing = SizingMode::Nominal;
  EXPECT_THROW(daemon::NodeDaemon(cfg, NodeId{0}), std::invalid_argument);
}

TEST(AsyncRuntimeSizing, ClusterParserReadsWireAndRejectsNominal) {
  const std::string base =
      "node 0 127.0.0.1 0\n"
      "node 1 127.0.0.1 0\n"
      "link 0 1\n"
      "sub 1 0\n";
  EXPECT_EQ(runtime::parse_cluster_config(base + "sizing wire\n").sizing,
            SizingMode::Wire);
  EXPECT_THROW((void)runtime::parse_cluster_config(base + "sizing nominal\n"),
               std::invalid_argument);
}

TEST(AsyncRuntime, ZeroQueueCapacityRejected) {
  runtime::AsyncRuntimeConfig c;
  c.inbound_queue_capacity = 0;
  EXPECT_THROW(runtime::AsyncRuntime rt(c), std::invalid_argument);
}

// -- timers under a shared cluster epoch ---------------------------------------

TEST(AsyncRuntimeTimers, FireInDeadlineOrderWhileClockIsNegative) {
  // An `epoch-ns` line later than this process's start (a daemon launched
  // before the cluster's publish epoch) makes now() negative. The timer
  // queue must not care: deadline order, FIFO ties, nothing early.
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  runtime::AsyncRuntimeConfig c;
  c.clock_epoch_ns = static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
                     ts.tv_nsec + Duration::seconds(10.0).count_nanos();
  runtime::AsyncRuntime rt(c);
  const SimTime start = rt.now();
  ASSERT_LT(start, SimTime::zero());

  std::vector<char> order;
  std::vector<Duration> fired_after;
  const auto record = [&](char tag) {
    order.push_back(tag);
    fired_after.push_back(rt.now() - start);
  };
  rt.after(Duration::millis(20), [&]() { record('A'); });
  rt.after(Duration::millis(5), [&]() { record('B'); });
  rt.after(Duration::millis(20), [&]() { record('C'); });
  runtime::TimerHandle cancelled =
      rt.after(Duration::millis(10), [&]() { record('X'); });
  EXPECT_TRUE(cancelled.cancel());
  rt.run_for(Duration::millis(60));

  EXPECT_EQ(order, (std::vector<char>{'B', 'A', 'C'}));
  ASSERT_EQ(fired_after.size(), 3u);
  EXPECT_GE(fired_after[0], Duration::millis(5));
  EXPECT_GE(fired_after[1], Duration::millis(20));
  EXPECT_LT(rt.now(), SimTime::zero());
  EXPECT_EQ(rt.stats().timers_fired, 3u);
}

// -- endpoint management ------------------------------------------------------

TEST(AsyncRuntime, EphemeralPortResolvesOnAttach) {
  runtime::AsyncRuntime rt;
  rt.set_peer(NodeId{0}, runtime::PeerEndpoint{"127.0.0.1", 0});
  EXPECT_EQ(rt.peer(NodeId{0}).port, 0);

  class NullSink final : public TransportReceiver {
    void on_overlay_message(NodeId, const MessagePtr&) override {}
    void on_direct_message(NodeId, const MessagePtr&) override {}
  } sink;
  rt.attach(NodeId{0}, sink);
  // The OS picked a concrete port and the peer table learned it, so other
  // local nodes (and the stats) see where this node actually listens.
  EXPECT_GT(rt.peer(NodeId{0}).port, 0);
}

// -- synthetic inbound loss ---------------------------------------------------

TEST(AsyncRuntime, InboundDropRateLosesEventsButNeverControl) {
  runtime::AsyncRuntimeConfig c;
  c.inbound_drop_rate = 1.0;  // every droppable frame is dropped
  runtime::AsyncRuntime rt(c);
  rt.set_peer(NodeId{0}, runtime::PeerEndpoint{"127.0.0.1", 0});
  rt.set_peer(NodeId{1}, runtime::PeerEndpoint{"127.0.0.1", 0});
  rt.add_link(NodeId{0}, NodeId{1});

  struct CountSink final : TransportReceiver {
    int events = 0;
    int control = 0;
    void on_overlay_message(NodeId, const MessagePtr& msg) override {
      (msg->message_class() == MessageClass::Control ? control : events)++;
    }
    void on_direct_message(NodeId, const MessagePtr&) override {}
  } sinks[2];
  rt.attach(NodeId{0}, sinks[0]);
  rt.attach(NodeId{1}, sinks[1]);

  for (int i = 0; i < 5; ++i) {
    rt.send_overlay(NodeId{0}, NodeId{1},
                    std::make_shared<EventMessage>(
                        make_event(0, static_cast<std::uint64_t>(i)),
                        std::vector<NodeId>{}));
    rt.send_overlay(NodeId{0}, NodeId{1},
                    std::make_shared<SubscribeMessage>(Pattern{1}, true));
  }
  for (int i = 0; i < 20; ++i) rt.poll(Duration::millis(5));

  // Control frames model the lossless (TCP-backed) control channel and are
  // exempt from the synthetic drop, exactly as in the simulated transport.
  EXPECT_EQ(sinks[1].events, 0);
  EXPECT_EQ(sinks[1].control, 5);
  EXPECT_EQ(rt.stats().drops_injected, 5u);
}

// -- satellite: oracles over real traffic -------------------------------------

TEST(AsyncRuntimeOracles, WireRoundTripOracleVerifiesCapturedFrames) {
  runtime::AsyncRuntime rt;
  rt.set_peer(NodeId{0}, runtime::PeerEndpoint{"127.0.0.1", 0});
  rt.set_peer(NodeId{1}, runtime::PeerEndpoint{"127.0.0.1", 0});
  rt.add_link(NodeId{0}, NodeId{1});

  class NullSink final : public TransportReceiver {
    void on_overlay_message(NodeId, const MessagePtr&) override {}
    void on_direct_message(NodeId, const MessagePtr&) override {}
  } sinks[2];
  rt.attach(NodeId{0}, sinks[0]);
  rt.attach(NodeId{1}, sinks[1]);

  oracle::OracleContext ctx;
  ctx.sizing = SizingMode::Wire;
  oracle::OracleSuite suite(ctx, oracle::FailMode::Record);
  auto wire = std::make_unique<oracle::WireRoundTripOracle>();
  oracle::WireRoundTripOracle* wire_ptr = wire.get();
  suite.add(std::move(wire));
  rt.add_observer(suite);  // send-side hook: verify_frame on every send

  // Receive-side hook: every frame that actually crossed the socket is
  // round-tripped through the codec, exactly as epicastd wires it.
  int frames_seen = 0;
  std::vector<std::uint8_t> last_frame;
  rt.set_frame_observer([&](NodeId, NodeId to, bool,
                            std::span<const std::uint8_t> frame,
                            const MessagePtr&) {
    ++frames_seen;
    last_frame.assign(frame.begin(), frame.end());
    wire_ptr->verify_bytes(to, frame);
  });

  rt.send_overlay(NodeId{0}, NodeId{1},
                  std::make_shared<EventMessage>(make_event(0, 7),
                                                 std::vector<NodeId>{}));
  rt.send_direct(NodeId{1}, NodeId{0},
                 std::make_shared<SubscribeMessage>(Pattern{4}, true));
  for (int i = 0; i < 20; ++i) rt.poll(Duration::millis(5));

  EXPECT_EQ(frames_seen, 2);
  EXPECT_GE(suite.checks(), 2u);
  EXPECT_TRUE(suite.violations().empty())
      << suite.violations().front().detail;

  // And the oracle is not vacuous: corrupting a captured frame fires it.
  ASSERT_FALSE(last_frame.empty());
  last_frame.back() ^= 0xff;
  wire_ptr->verify_bytes(NodeId{0}, last_frame);
  EXPECT_FALSE(suite.violations().empty());
}

// -- wire-level fault injection (tentpole) ------------------------------------

struct CountSink final : TransportReceiver {
  int events = 0;
  int control = 0;
  void on_overlay_message(NodeId, const MessagePtr& msg) override {
    (msg->message_class() == MessageClass::Control ? control : events)++;
  }
  void on_direct_message(NodeId, const MessagePtr&) override {}
};

runtime::AsyncRuntimeConfig faulty_config(const std::string& plan) {
  runtime::AsyncRuntimeConfig c;
  std::string error;
  const auto parsed = fault::parse_plan(plan, &error);
  EXPECT_TRUE(parsed) << error;
  c.faults = *parsed;
  return c;
}

void two_node_pair(runtime::AsyncRuntime& rt, CountSink sinks[2]) {
  rt.set_peer(NodeId{0}, runtime::PeerEndpoint{"127.0.0.1", 0});
  rt.set_peer(NodeId{1}, runtime::PeerEndpoint{"127.0.0.1", 0});
  rt.add_link(NodeId{0}, NodeId{1});
  rt.attach(NodeId{0}, sinks[0]);
  rt.attach(NodeId{1}, sinks[1]);
}

TEST(AsyncRuntimeFaults, BurstLossDropsEventsButNeverControl) {
  // p_enter=1, loss_bad=1: the chain enters Bad on the first transition
  // (transition-then-loss) and r=1e-9 keeps it there — every non-control
  // frame is lost, exactly like a fade that outlasts the test.
  runtime::AsyncRuntime rt(faulty_config("burst(p=1,r=0.000000001)"));
  CountSink sinks[2];
  two_node_pair(rt, sinks);

  for (int i = 0; i < 5; ++i) {
    rt.send_overlay(NodeId{0}, NodeId{1},
                    std::make_shared<EventMessage>(
                        make_event(0, static_cast<std::uint64_t>(i)),
                        std::vector<NodeId>{}));
    rt.send_overlay(NodeId{0}, NodeId{1},
                    std::make_shared<SubscribeMessage>(Pattern{1}, true));
  }
  for (int i = 0; i < 20; ++i) rt.poll(Duration::millis(5));

  EXPECT_EQ(sinks[1].events, 0);
  EXPECT_EQ(sinks[1].control, 5);  // GE models the lossy data path only
  EXPECT_EQ(rt.stats().burst_drops, 5u);
  EXPECT_EQ(rt.stats().drops_injected, 0u);  // distinct from Bernoulli ε
}

TEST(AsyncRuntimeFaults, BurstWindowNotYetOpenDropsNothing) {
  runtime::AsyncRuntime rt(
      faulty_config("burst(p=1,r=0.000000001,start=3600)"));
  CountSink sinks[2];
  two_node_pair(rt, sinks);

  rt.send_overlay(NodeId{0}, NodeId{1},
                  std::make_shared<EventMessage>(make_event(0, 1),
                                                 std::vector<NodeId>{}));
  for (int i = 0; i < 20; ++i) rt.poll(Duration::millis(5));

  EXPECT_EQ(sinks[1].events, 1);
  EXPECT_EQ(rt.stats().burst_drops, 0u);
}

TEST(AsyncRuntimeFaults, BlackholeSilencesTheLinkIncludingControl) {
  // One link, partition(links=1): the victim choice has no freedom — the
  // 0–1 link is black for [at, heal), and unlike loss models a dead link
  // carries nothing, control included.
  runtime::AsyncRuntime rt(faulty_config("partition(links=1,at=0,heal=3600)"));
  CountSink sinks[2];
  two_node_pair(rt, sinks);

  rt.send_overlay(NodeId{0}, NodeId{1},
                  std::make_shared<EventMessage>(make_event(0, 1),
                                                 std::vector<NodeId>{}));
  rt.send_overlay(NodeId{0}, NodeId{1},
                  std::make_shared<SubscribeMessage>(Pattern{1}, true));
  for (int i = 0; i < 20; ++i) rt.poll(Duration::millis(5));

  EXPECT_EQ(sinks[1].events, 0);
  EXPECT_EQ(sinks[1].control, 0);
  EXPECT_EQ(rt.stats().blackhole_drops, 2u);
}

TEST(AsyncRuntimeFaults, SlowdownDelaysButStillDelivers) {
  runtime::AsyncRuntimeConfig c = faulty_config("slow(factor=0.01)");
  runtime::AsyncRuntime rt(c);
  CountSink sinks[2];
  two_node_pair(rt, sinks);

  rt.send_overlay(NodeId{0}, NodeId{1},
                  std::make_shared<EventMessage>(make_event(0, 1),
                                                 std::vector<NodeId>{}));
  for (int i = 0; i < 40; ++i) {
    rt.poll(Duration::millis(5));
    if (sinks[1].events > 0) break;
  }

  // ~150 wire bytes at 1.25e6·0.01 B/s ≈ 12 ms of injected serialisation
  // delay: the frame arrives, later, through an after() timer.
  EXPECT_EQ(sinks[1].events, 1);
  EXPECT_GE(rt.stats().slowdown_delays, 1u);
}

TEST(AsyncRuntimeFaults, ChurnSpecsAreRejected) {
  // Process death is real in daemon mode — the harness --chaos schedule
  // owns it; a runtime-simulated churn would be a lie.
  runtime::AsyncRuntimeConfig c =
      faulty_config("churn(period=1,down=0.3)");
  try {
    runtime::AsyncRuntime rt(c);
    FAIL() << "AsyncRuntime accepted a churn spec";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("chaos"), std::string::npos)
        << e.what();
  }
}

TEST(AsyncRuntimeFaults, LivenessHooksFeedTheStats) {
  runtime::AsyncRuntime rt;
  rt.note_heartbeat_sent();
  rt.note_heartbeat_sent();
  rt.note_heartbeat_received();
  rt.note_peer_suspected();
  rt.note_peer_confirmed_dead();
  rt.note_restart_observed();
  const auto& st = rt.stats();
  EXPECT_EQ(st.heartbeats_sent, 2u);
  EXPECT_EQ(st.heartbeats_received, 1u);
  EXPECT_EQ(st.peers_suspected, 1u);
  EXPECT_EQ(st.peers_confirmed_dead, 1u);
  EXPECT_EQ(st.restarts_observed, 1u);
}

// -- transport stats ----------------------------------------------------------

TEST(AsyncRuntime, StatsCountBytesAndDatagrams) {
  runtime::AsyncRuntime rt;
  rt.set_peer(NodeId{0}, runtime::PeerEndpoint{"127.0.0.1", 0});
  rt.set_peer(NodeId{1}, runtime::PeerEndpoint{"127.0.0.1", 0});
  rt.add_link(NodeId{0}, NodeId{1});
  class NullSink final : public TransportReceiver {
    void on_overlay_message(NodeId, const MessagePtr&) override {}
    void on_direct_message(NodeId, const MessagePtr&) override {}
  } sinks[2];
  rt.attach(NodeId{0}, sinks[0]);
  rt.attach(NodeId{1}, sinks[1]);

  rt.send_overlay(NodeId{0}, NodeId{1},
                  std::make_shared<SubscribeMessage>(Pattern{0}, true));
  for (int i = 0; i < 20; ++i) rt.poll(Duration::millis(5));

  const auto& st = rt.stats();
  EXPECT_EQ(st.datagrams_sent, 1u);
  EXPECT_EQ(st.datagrams_received, 1u);
  EXPECT_GT(st.bytes_sent, 0u);
  EXPECT_EQ(st.bytes_sent, st.bytes_received);
  EXPECT_EQ(st.send_failures, 0u);
  EXPECT_EQ(st.decode_errors, 0u);
}

}  // namespace
}  // namespace epicast
