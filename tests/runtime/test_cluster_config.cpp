// The cluster config file is the only shared state of an epicastd
// deployment — every daemon parses the same bytes and must agree on the
// topology, routes, and workload it implies. These tests pin the directive
// grammar, the line-numbered syntax errors, and the cross-field validation.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "epicast/runtime/cluster.hpp"

namespace epicast::runtime {
namespace {

const std::string kMinimal =
    "node 0 127.0.0.1 9000\n"
    "node 1 127.0.0.1 9001\n"
    "link 0 1\n"
    "sub 1 3\n";

TEST(ClusterConfig, ParsesMinimalCluster) {
  const ClusterConfig cfg = parse_cluster_config(kMinimal);
  ASSERT_EQ(cfg.node_count(), 2u);
  EXPECT_EQ(cfg.endpoints[0].host, "127.0.0.1");
  EXPECT_EQ(cfg.endpoints[0].port, 9000);
  EXPECT_EQ(cfg.endpoints[1].port, 9001);
  ASSERT_EQ(cfg.links.size(), 1u);
  EXPECT_EQ(cfg.links[0].first, NodeId{0});
  EXPECT_EQ(cfg.links[0].second, NodeId{1});
  ASSERT_EQ(cfg.subscriptions.size(), 1u);
  EXPECT_EQ(cfg.subscriptions[0].first, NodeId{1});
  EXPECT_EQ(cfg.subscriptions[0].second, Pattern{3});
  // Defaults: the paper's combined pull with wire sizing and oracles on.
  EXPECT_EQ(cfg.algorithm, Algorithm::CombinedPull);
  EXPECT_EQ(cfg.sizing, SizingMode::Wire);
  EXPECT_TRUE(cfg.oracles);
}

TEST(ClusterConfig, ParsesAllKnobs) {
  const ClusterConfig cfg = parse_cluster_config(
      "# full knob coverage\n"
      "node 0 10.0.0.1 9000\n"
      "node 1 10.0.0.2 9001   # trailing comment\n"
      "link 0 1\n"
      "sub 0 2\n"
      "sub 1 5\n"
      "algorithm push\n"
      "gossip-interval-ms 25\n"
      "beta 500\n"
      "pforward 0.08\n"
      "psource 0.5\n"
      "request-timeout-ms 90\n"
      "pattern-universe 32\n"
      "patterns-per-event 2\n"
      "payload-bytes 512\n"
      "rate 42.5\n"
      "publisher 0\n"
      "settle 0.5\n"
      "run 3\n"
      "drain 1.5\n"
      "drop-rate 0.01\n"
      "seed 99\n"
      "sizing wire\n"
      "queue-capacity 128\n"
      "oracles off\n");
  EXPECT_EQ(cfg.algorithm, Algorithm::Push);
  EXPECT_EQ(cfg.gossip.interval, Duration::millis(25));
  EXPECT_EQ(cfg.gossip.buffer_size, 500u);
  EXPECT_DOUBLE_EQ(cfg.gossip.forward_probability, 0.08);
  EXPECT_DOUBLE_EQ(cfg.gossip.source_probability, 0.5);
  EXPECT_EQ(cfg.gossip.request_timeout, Duration::millis(90));
  EXPECT_EQ(cfg.pattern_universe, 32u);
  EXPECT_EQ(cfg.patterns_per_event, 2u);
  EXPECT_EQ(cfg.event_payload_bytes, 512u);
  EXPECT_DOUBLE_EQ(cfg.publish_rate_hz, 42.5);
  ASSERT_EQ(cfg.publishers.size(), 1u);
  EXPECT_EQ(cfg.publishers[0], NodeId{0});
  EXPECT_DOUBLE_EQ(cfg.settle_seconds, 0.5);
  EXPECT_DOUBLE_EQ(cfg.run_seconds, 3.0);
  EXPECT_DOUBLE_EQ(cfg.drain_seconds, 1.5);
  EXPECT_DOUBLE_EQ(cfg.drop_rate, 0.01);
  EXPECT_EQ(cfg.seed, 99u);
  EXPECT_EQ(cfg.queue_capacity, 128u);
  EXPECT_FALSE(cfg.oracles);
}

TEST(ClusterConfig, AlgorithmNamesMatchSimCli) {
  EXPECT_EQ(parse_algorithm_name("no-recovery"), Algorithm::NoRecovery);
  EXPECT_EQ(parse_algorithm_name("none"), Algorithm::NoRecovery);
  EXPECT_EQ(parse_algorithm_name("push"), Algorithm::Push);
  EXPECT_EQ(parse_algorithm_name("subscriber-pull"),
            Algorithm::SubscriberPull);
  EXPECT_EQ(parse_algorithm_name("publisher-pull"), Algorithm::PublisherPull);
  EXPECT_EQ(parse_algorithm_name("combined-pull"), Algorithm::CombinedPull);
  EXPECT_EQ(parse_algorithm_name("random-pull"), Algorithm::RandomPull);
  EXPECT_THROW((void)parse_algorithm_name("lazy-pull"),
               std::invalid_argument);
}

void expect_error(const std::string& text, const std::string& needle) {
  try {
    (void)parse_cluster_config(text);
    FAIL() << "expected invalid_argument mentioning '" << needle << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(ClusterConfig, SyntaxErrorsCarryLineNumbers) {
  expect_error(kMinimal + "bogus-directive 1\n", "line 5");
  expect_error(kMinimal + "bogus-directive 1\n", "bogus-directive");
  expect_error("node 0 127.0.0.1\n", "'node' takes 3");
  expect_error(kMinimal + "rate fast\n", "expected a number");
  expect_error(kMinimal + "seed abc\n", "unsigned");
  expect_error(kMinimal + "sizing fancy\n", "'wire' or 'nominal'");
  expect_error(kMinimal + "oracles maybe\n", "'on' or 'off'");
  expect_error("node 0 127.0.0.1 70000\n", "port out of range");
}

TEST(ClusterConfig, NonFiniteNumbersAreSyntaxErrors) {
  // NaN compares false with every bound, so it would pass validate()'s
  // range checks; each directive that takes a number rejects it at parse.
  expect_error(kMinimal + "drop-rate nan\n", "line 5");
  expect_error(kMinimal + "drop-rate nan\n", "finite");
  expect_error(kMinimal + "run nan\n", "finite");
  expect_error(kMinimal + "pforward nan\n", "finite");
  expect_error(kMinimal + "psource -nan\n", "finite");
  expect_error(kMinimal + "rate inf\n", "finite");
  expect_error(kMinimal + "heartbeat-interval-ms infinity\n", "finite");
  expect_error(kMinimal + "gossip-interval-ms nan\n", "finite");
  expect_error(kMinimal + "request-timeout-ms inf\n", "finite");
  expect_error(kMinimal + "gossip-interval-ms 1e300\n", "out of range");
}

TEST(ClusterConfig, MillisecondDirectivesKeepFractions) {
  ClusterConfig cfg = parse_cluster_config(kMinimal +
                                           "gossip-interval-ms 30.7\n"
                                           "request-timeout-ms 0.25\n");
  EXPECT_EQ(cfg.gossip.interval, Duration::micros(30'700));
  EXPECT_EQ(cfg.gossip.request_timeout, Duration::micros(250));
  // A positive interval under a millisecond is valid, not truncated to 0.
  cfg = parse_cluster_config(kMinimal + "gossip-interval-ms 0.5\n");
  EXPECT_EQ(cfg.gossip.interval, Duration::micros(500));
}

TEST(ClusterConfig, ValidationCatchesInconsistencies) {
  expect_error("", "no nodes");
  // Sparse ids: node 2 declared without node 1.
  expect_error("node 0 127.0.0.1 9000\nnode 2 127.0.0.1 9002\n", "dense");
  expect_error(kMinimal + "link 0 5\n", "outside");
  expect_error(kMinimal + "link 1 1\n", "self");
  expect_error(kMinimal + "sub 0 99\n", "universe");
  expect_error(kMinimal + "publisher 9\n", "outside");
  expect_error(kMinimal + "patterns-per-event 40\n", "patterns-per-event");
  expect_error(kMinimal + "drop-rate 1.0\n", "drop-rate");
  expect_error(kMinimal + "run 0\n", "run");
  expect_error(kMinimal + "queue-capacity 0\n", "queue-capacity");
  expect_error(kMinimal + "pforward 1.5\n", "pforward");
  // Values the daemon's gossip layer would otherwise abort on.
  expect_error(kMinimal + "beta 0\n", "beta");
  expect_error(kMinimal + "gossip-interval-ms 0\n", "gossip-interval-ms");
  expect_error(kMinimal + "gossip-interval-ms -30\n", "gossip-interval-ms");
  expect_error(kMinimal + "request-timeout-ms -1\n", "request-timeout-ms");
}

TEST(ClusterConfig, ParsesLiveClusterDirectives) {
  const ClusterConfig cfg = parse_cluster_config(
      kMinimal +
      "heartbeat-interval-ms 125\n"
      "epoch-ns 123456789012345\n"
      "request-timeout-ms 80\n"
      "faults burst(p=0.05,r=0.25);slow(factor=0.5,start=1,stop=2)\n");
  EXPECT_DOUBLE_EQ(cfg.heartbeat_interval_ms, 125.0);
  EXPECT_EQ(cfg.clock_epoch_ns, 123456789012345);
  EXPECT_TRUE(cfg.request_timeout_set);
  ASSERT_EQ(cfg.faults.bursts.size(), 1u);
  EXPECT_DOUBLE_EQ(cfg.faults.bursts[0].channel.p_enter, 0.05);
  ASSERT_EQ(cfg.faults.slows.size(), 1u);
  EXPECT_DOUBLE_EQ(cfg.faults.slows[0].factor, 0.5);
}

TEST(ClusterConfig, DefaultsLeaveLiveKnobsNeutral) {
  const ClusterConfig cfg = parse_cluster_config(kMinimal);
  // A config that does not mention request-timeout-ms leaves the flag
  // unset, so daemon mode may apply its retry-hardening default without
  // overriding an operator's explicit choice.
  EXPECT_FALSE(cfg.request_timeout_set);
  EXPECT_TRUE(cfg.faults.empty());
  EXPECT_EQ(cfg.clock_epoch_ns, -1);
}

TEST(ClusterConfig, LiveDirectiveErrorsAreCaught) {
  expect_error(kMinimal + "heartbeat-interval-ms -1\n", "heartbeat");
  expect_error(kMinimal + "epoch-ns xyz\n", "integer");
  expect_error(kMinimal + "faults nonsense(\n", "fault plan");
  // Churn means simulated process death — real daemons die for real; the
  // harness --chaos schedule owns that.
  expect_error(kMinimal + "faults churn(period=1,down=0.5)\n", "chaos");
}

TEST(ClusterConfig, LoadReportsUnreadablePath) {
  EXPECT_THROW(load_cluster_config("/nonexistent/cluster.conf"),
               std::runtime_error);
}

}  // namespace
}  // namespace epicast::runtime
