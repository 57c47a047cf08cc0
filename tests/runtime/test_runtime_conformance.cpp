// Seam conformance: all three Runtime backends — the Simulator, a
// ShardRuntime lane of the sharded engine, and the socket AsyncRuntime —
// must honour the same contract: timer deadline ordering with FIFO
// tie-break, one-shot cancellation semantics, a monotonic clock,
// periodic-timer lifecycle, and transport delivery with correct
// sender/channel attribution. The protocol layer is written against
// exactly these properties; a backend that violates one breaks gossip
// scheduling in ways unit tests of the protocols would only catch
// indirectly.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "epicast/net/topology.hpp"
#include "epicast/net/transport.hpp"
#include "epicast/pubsub/messages.hpp"
#include "epicast/runtime/async_runtime.hpp"
#include "epicast/runtime/runtime.hpp"
#include "epicast/runtime/shard_runtime.hpp"
#include "epicast/sim/shard_engine.hpp"
#include "epicast/sim/simulator.hpp"

namespace epicast {
namespace {

/// One backend under test: the seam plus a way to let its time pass.
class Backend {
 public:
  virtual ~Backend() = default;
  virtual runtime::Runtime& rt() = 0;
  /// Runs the backend until at least `d` of its time has passed.
  virtual void advance(Duration d) = 0;
  /// True when timers fire exactly at their deadlines (simulated time);
  /// real-clock backends only promise "never early".
  [[nodiscard]] virtual bool exact() const { return true; }
};

class SimBackend final : public Backend {
 public:
  SimBackend() : sim_(1) {}
  runtime::Runtime& rt() override { return sim_; }
  void advance(Duration d) override { sim_.run_until(sim_.now() + d); }

 private:
  Simulator sim_;
};

/// Lane 0 of a 2-shard engine over the master Simulator.
class ShardBackend final : public Backend {
 public:
  ShardBackend()
      : sim_(1),
        engine_(sim_, /*nodes=*/2, /*shards=*/2, Duration::millis(1)),
        rt_(engine_, /*lane=*/0, sim_, /*own_pool=*/true) {}
  runtime::Runtime& rt() override { return rt_; }
  void advance(Duration d) override { engine_.run_until(engine_.now() + d); }

 private:
  Simulator sim_;
  ShardEngine engine_;
  runtime::ShardRuntime rt_;
};

class AsyncBackend final : public Backend {
 public:
  AsyncBackend() : rt_(config()) {}
  runtime::Runtime& rt() override { return rt_; }
  void advance(Duration d) override { rt_.run_for(d); }
  [[nodiscard]] bool exact() const override { return false; }

  runtime::AsyncRuntime& async() { return rt_; }

 private:
  static runtime::AsyncRuntimeConfig config() {
    runtime::AsyncRuntimeConfig c;
    c.seed = 1;
    c.sizing = SizingMode::Wire;
    return c;
  }
  runtime::AsyncRuntime rt_;
};

class RuntimeConformanceTest
    : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<Backend> make_backend() {
    const std::string name = GetParam();
    if (name == "sim") return std::make_unique<SimBackend>();
    if (name == "shard") return std::make_unique<ShardBackend>();
    return std::make_unique<AsyncBackend>();
  }
};

TEST_P(RuntimeConformanceTest, TimersFireInDeadlineOrderFifoOnTies) {
  auto b = make_backend();
  std::vector<char> order;
  // A and C share a deadline; A was scheduled first and must fire first.
  b->rt().after(Duration::millis(20), [&order]() { order.push_back('A'); });
  b->rt().after(Duration::millis(5), [&order]() { order.push_back('B'); });
  b->rt().after(Duration::millis(20), [&order]() { order.push_back('C'); });
  b->advance(Duration::millis(60));
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 'B');
  EXPECT_EQ(order[1], 'A');
  EXPECT_EQ(order[2], 'C');
}

TEST_P(RuntimeConformanceTest, CancelPreventsCallbackExactlyOnce) {
  auto b = make_backend();
  bool fired = false;
  runtime::TimerHandle h =
      b->rt().after(Duration::millis(10), [&fired]() { fired = true; });
  EXPECT_TRUE(h.pending());
  EXPECT_TRUE(h.cancel());       // first cancel wins
  EXPECT_FALSE(h.cancel());      // second is a no-op
  EXPECT_FALSE(h.pending());
  b->advance(Duration::millis(40));
  EXPECT_FALSE(fired);
}

TEST_P(RuntimeConformanceTest, CancelAfterFiringReportsNotPending) {
  auto b = make_backend();
  bool fired = false;
  runtime::TimerHandle h =
      b->rt().after(Duration::millis(5), [&fired]() { fired = true; });
  b->advance(Duration::millis(40));
  EXPECT_TRUE(fired);
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.cancel());
}

TEST_P(RuntimeConformanceTest, ClockIsMonotonicAndAdvances) {
  auto b = make_backend();
  const SimTime t0 = b->rt().now();
  EXPECT_GE(b->rt().now(), t0);
  b->advance(Duration::millis(10));
  const SimTime t1 = b->rt().now();
  EXPECT_GT(t1, t0);
  b->advance(Duration::millis(10));
  EXPECT_GE(b->rt().now(), t1);
}

TEST_P(RuntimeConformanceTest, TimerSeesNonDecreasingTimeAtFiring) {
  auto b = make_backend();
  const SimTime scheduled_at = b->rt().now();
  SimTime fired_at = SimTime::zero();
  b->rt().after(Duration::millis(10),
                [&]() { fired_at = b->rt().now(); });
  b->advance(Duration::millis(50));
  ASSERT_GT(fired_at, SimTime::zero());
  EXPECT_GE((fired_at - scheduled_at).count_nanos(),
            Duration::millis(9).count_nanos());
}

TEST_P(RuntimeConformanceTest, PeriodicTimerTicksAndStops) {
  auto b = make_backend();
  int ticks = 0;
  runtime::PeriodicTimer t = b->rt().every(
      Duration::millis(5), Duration::millis(5), [&ticks]() { ++ticks; });
  EXPECT_TRUE(t.running());
  b->advance(Duration::millis(40));
  if (b->exact()) {
    EXPECT_EQ(ticks, 8);
  } else {
    EXPECT_GE(ticks, 2);
  }
  t.stop();
  EXPECT_FALSE(t.running());
  const int at_stop = ticks;
  b->advance(Duration::millis(30));
  EXPECT_EQ(ticks, at_stop);
}

TEST_P(RuntimeConformanceTest, PeriodicTimerFirstDelayThenInterval) {
  auto b = make_backend();
  const SimTime start = b->rt().now();
  std::vector<Duration> ticks;
  runtime::PeriodicTimer t =
      b->rt().every(Duration::millis(10), Duration::millis(30),
                    [&]() { ticks.push_back(b->rt().now() - start); });
  b->advance(Duration::millis(100));
  if (b->exact()) {
    // 10, 40, 70, 100 ms.
    ASSERT_EQ(ticks.size(), 4u);
    for (std::size_t i = 0; i < ticks.size(); ++i) {
      EXPECT_EQ(ticks[i], Duration::millis(10 + 30 * static_cast<int>(i)));
    }
  } else {
    ASSERT_GE(ticks.size(), 1u);
    EXPECT_GE(ticks[0], Duration::millis(10));
    for (std::size_t i = 1; i < ticks.size(); ++i) {
      EXPECT_GE(ticks[i] - ticks[i - 1], Duration::millis(30));
    }
  }
}

TEST_P(RuntimeConformanceTest, PeriodicTimerStopsOnDestruction) {
  auto b = make_backend();
  int ticks = 0;
  {
    runtime::PeriodicTimer t = b->rt().every(
        Duration::millis(10), Duration::millis(10), [&ticks]() { ++ticks; });
  }
  b->advance(Duration::millis(60));
  EXPECT_EQ(ticks, 0);
}

TEST_P(RuntimeConformanceTest, PeriodicTimerSetIntervalTakesEffect) {
  auto b = make_backend();
  const SimTime start = b->rt().now();
  std::vector<Duration> ticks;
  runtime::PeriodicTimer t =
      b->rt().every(Duration::millis(10), Duration::millis(10),
                    [&]() { ticks.push_back(b->rt().now() - start); });
  b->advance(Duration::millis(10));
  // From outside a tick, while the next one is still scheduled: that tick
  // is cancelled and the timer re-arms a full new interval from now.
  const Duration set_at = b->rt().now() - start;
  const std::size_t before = ticks.size();
  t.set_interval(Duration::millis(50));
  b->advance(Duration::millis(130));
  if (b->exact()) {
    // 10, 60, 110 ms: no tick at 20 ms.
    ASSERT_EQ(ticks.size(), 3u);
    EXPECT_EQ(ticks[0], Duration::millis(10));
    EXPECT_EQ(ticks[1], Duration::millis(60));
    EXPECT_EQ(ticks[2], Duration::millis(110));
  } else {
    ASSERT_GT(ticks.size(), before);
    EXPECT_GE(ticks[before] - set_at, Duration::millis(50));
    for (std::size_t i = before + 1; i < ticks.size(); ++i) {
      EXPECT_GE(ticks[i] - ticks[i - 1], Duration::millis(50)) << i;
    }
  }
}

TEST_P(RuntimeConformanceTest, PeriodicTimerSetIntervalFromInsideATick) {
  auto b = make_backend();
  const SimTime start = b->rt().now();
  std::vector<Duration> ticks;
  runtime::PeriodicTimer t;
  t = b->rt().every(Duration::millis(10), Duration::millis(10), [&]() {
    ticks.push_back(b->rt().now() - start);
    // From inside the first tick: the next one is a full new interval away.
    if (ticks.size() == 1) t.set_interval(Duration::millis(50));
  });
  b->advance(Duration::millis(200));
  ASSERT_GE(ticks.size(), 2u);
  if (b->exact()) {
    // 10, 60, 110, 160 ms.
    ASSERT_EQ(ticks.size(), 4u);
    EXPECT_EQ(ticks[0], Duration::millis(10));
    EXPECT_EQ(ticks[1], Duration::millis(60));
    EXPECT_EQ(ticks[3], Duration::millis(160));
  }
  for (std::size_t i = 1; i < ticks.size(); ++i) {
    EXPECT_GE(ticks[i] - ticks[i - 1], Duration::millis(50));
  }
}

TEST_P(RuntimeConformanceTest, MovedPeriodicTimerKeepsTicking) {
  auto b = make_backend();
  int ticks = 0;
  runtime::PeriodicTimer outer;
  {
    runtime::PeriodicTimer inner = b->rt().every(
        Duration::millis(10), Duration::millis(10), [&ticks]() { ++ticks; });
    outer = std::move(inner);
  }
  EXPECT_TRUE(outer.running());
  b->advance(Duration::millis(50));
  if (b->exact()) {
    EXPECT_EQ(ticks, 5);
  } else {
    EXPECT_GE(ticks, 1);
  }
}

TEST_P(RuntimeConformanceTest, PeriodicTimerStartedFromATickRuns) {
  auto b = make_backend();
  int inner_ticks = 0;
  runtime::PeriodicTimer inner;
  runtime::PeriodicTimer outer;
  outer = b->rt().every(Duration::millis(5), Duration::millis(5), [&]() {
    if (inner.running()) return;
    inner = b->rt().every(Duration::millis(10), Duration::millis(10),
                          [&inner_ticks]() { ++inner_ticks; });
    outer.stop();  // stopping the ticking timer from its own tick is safe
  });
  b->advance(Duration::millis(60));
  EXPECT_FALSE(outer.running());
  EXPECT_TRUE(inner.running());
  if (b->exact()) {
    EXPECT_EQ(inner_ticks, 5);  // 15, 25, 35, 45, 55 ms
  } else {
    EXPECT_GE(inner_ticks, 1);
  }
}

TEST_P(RuntimeConformanceTest, ForkRngStreamsDiffer) {
  auto b = make_backend();
  Rng a = b->rt().fork_rng();
  Rng c = b->rt().fork_rng();
  bool differ = false;
  for (int i = 0; i < 8; ++i) {
    if (a.next() != c.next()) differ = true;
  }
  EXPECT_TRUE(differ);
}

INSTANTIATE_TEST_SUITE_P(Backends, RuntimeConformanceTest,
                         ::testing::Values("sim", "shard", "async"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// -- transport conformance ----------------------------------------------------
// Delivery attribution (sender id, channel) and stale-route drops must look
// identical above the seam whether the bytes crossed a simulated link or a
// real socket.

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

MessagePtr make_sub_message() {
  return std::make_shared<SubscribeMessage>(Pattern{3}, true);
}

void check_transport_contract(runtime::Transport& tr, Sink sinks[3],
                              const std::function<void()>& pump) {
  // 0—1 linked: overlay delivery carries the sender and the channel.
  tr.send_overlay(NodeId{0}, NodeId{1}, make_sub_message());
  pump();
  ASSERT_EQ(sinks[1].received.size(), 1u);
  EXPECT_EQ(sinks[1].received[0].from, NodeId{0});
  EXPECT_TRUE(sinks[1].received[0].overlay);
  EXPECT_EQ(sinks[1].received[0].cls, MessageClass::Control);

  // Direct channel ignores overlay links (0—2 are not neighbours).
  ASSERT_FALSE(tr.has_link(NodeId{0}, NodeId{2}));
  tr.send_direct(NodeId{0}, NodeId{2}, make_sub_message());
  pump();
  ASSERT_EQ(sinks[2].received.size(), 1u);
  EXPECT_EQ(sinks[2].received[0].from, NodeId{0});
  EXPECT_FALSE(sinks[2].received[0].overlay);

  // Overlay without a link: dropped, never delivered.
  tr.send_overlay(NodeId{0}, NodeId{2}, make_sub_message());
  pump();
  EXPECT_EQ(sinks[2].received.size(), 1u);

  // neighbors() reflects the line topology.
  ASSERT_EQ(tr.neighbors(NodeId{1}).size(), 2u);
  EXPECT_EQ(tr.node_count(), 3u);
}

TEST(TransportConformance, SimBackendHonoursContract) {
  Simulator sim(1);
  Topology topo = Topology::line(3);
  TransportConfig tc;
  tc.link.loss_rate = 0.0;
  tc.direct_loss_rate = 0.0;
  Transport transport(sim, topo, tc);
  runtime::Runtime& rt = sim;
  Sink sinks[3];
  for (std::uint32_t i = 0; i < 3; ++i) {
    rt.transport().attach(NodeId{i}, sinks[i]);
  }
  check_transport_contract(rt.transport(), sinks, [&sim]() {
    sim.run_until(sim.now() + Duration::seconds(1.0));
  });
}

TEST(TransportConformance, ShardBackendHonoursContract) {
  Simulator sim(1);
  Topology topo = Topology::line(3);
  TransportConfig tc;
  tc.link.loss_rate = 0.0;
  tc.direct_loss_rate = 0.0;
  Transport transport(sim, topo, tc);
  ShardEngine engine(sim, 3, 2,
                     ShardEngine::compute_lookahead(tc.link.propagation,
                                                    tc.direct_latency_min));
  transport.set_arrival_router(
      [&engine](NodeId to, Duration delay, Scheduler::Callback cb) {
        engine.schedule_arrival(to, delay, std::move(cb));
      });
  runtime::ShardRuntime rt(engine, engine.lane_of(NodeId{0}), sim,
                           /*own_pool=*/false);
  Sink sinks[3];
  for (std::uint32_t i = 0; i < 3; ++i) {
    rt.transport().attach(NodeId{i}, sinks[i]);
  }
  check_transport_contract(rt.transport(), sinks, [&engine]() {
    engine.run_until(engine.now() + Duration::seconds(1.0));
  });
}

TEST(TransportConformance, AsyncBackendHonoursContract) {
  runtime::AsyncRuntimeConfig rc;
  rc.sizing = SizingMode::Wire;
  runtime::AsyncRuntime rt(rc);
  for (std::uint32_t i = 0; i < 3; ++i) {
    rt.set_peer(NodeId{i}, runtime::PeerEndpoint{"127.0.0.1", 0});
  }
  rt.add_link(NodeId{0}, NodeId{1});
  rt.add_link(NodeId{1}, NodeId{2});
  Sink sinks[3];
  for (std::uint32_t i = 0; i < 3; ++i) {
    rt.attach(NodeId{i}, sinks[i]);
  }
  check_transport_contract(rt, sinks, [&rt]() {
    // A few loop turns so the datagram crosses the loopback and the queue.
    for (int i = 0; i < 20; ++i) rt.poll(Duration::millis(5));
  });
  EXPECT_EQ(rt.stats().drops_no_link, 1u);
  EXPECT_EQ(rt.stats().decode_errors, 0u);
}

TEST(TransportConformance, AsyncBoundedQueueDropsNewestOnOverflow) {
  runtime::AsyncRuntimeConfig rc;
  rc.sizing = SizingMode::Wire;
  rc.inbound_queue_capacity = 2;
  runtime::AsyncRuntime rt(rc);
  rt.set_peer(NodeId{0}, runtime::PeerEndpoint{"127.0.0.1", 0});
  rt.set_peer(NodeId{1}, runtime::PeerEndpoint{"127.0.0.1", 0});
  Sink sinks[2];
  rt.attach(NodeId{0}, sinks[0]);
  rt.attach(NodeId{1}, sinks[1]);

  // Burst without polling: the datagrams pile up in the kernel buffer, one
  // drain sees them all, and the bounded queue keeps only its capacity.
  constexpr int kBurst = 30;
  for (int i = 0; i < kBurst; ++i) {
    rt.send_direct(NodeId{0}, NodeId{1}, make_sub_message());
  }
  for (int i = 0; i < 20; ++i) rt.poll(Duration::millis(5));

  const auto& st = rt.stats();
  EXPECT_EQ(st.datagrams_sent, static_cast<std::uint64_t>(kBurst));
  EXPECT_GE(st.queue_overflows, 1u);
  EXPECT_LT(sinks[1].received.size(), static_cast<std::size_t>(kBurst));
  // Nothing vanished unaccounted: every received datagram was either
  // delivered or counted as an overflow drop.
  EXPECT_EQ(st.datagrams_received,
            sinks[1].received.size() + st.queue_overflows);
}

}  // namespace
}  // namespace epicast
