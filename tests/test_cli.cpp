// Unit tests for the epicast_sim flag parser.
#include "epicast/scenario/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "epicast/runtime/cluster.hpp"

namespace epicast {
namespace {

CliParse parse(std::initializer_list<const char*> args) {
  std::vector<std::string> v;
  for (const char* a : args) v.emplace_back(a);
  return parse_cli(v);
}

TEST(Cli, DefaultsArePaperDefaults) {
  const CliParse p = parse({});
  EXPECT_FALSE(p.error.has_value());
  EXPECT_EQ(p.config.nodes, 100u);
  EXPECT_EQ(p.config.algorithm, Algorithm::CombinedPull);
  EXPECT_DOUBLE_EQ(p.config.link_error_rate, 0.1);
  EXPECT_EQ(p.config.gossip.buffer_size, 1500u);
}

TEST(Cli, ParsesEveryFlag) {
  const CliParse p = parse({"--algorithm=push", "--nodes=40",
                            "--epsilon=0.05", "--rate=5", "--seed=9",
                            "--beta=700", "--interval=0.02",
                            "--pforward=0.8", "--psource=0.3",
                            "--max-hops=8", "--pi-max=4",
                            "--patterns-per-event=2", "--universe=50",
                            "--measure=2.5", "--warmup=0.5", "--horizon=4",
                            "--oob-loss=0.02", "--csv"});
  ASSERT_FALSE(p.error.has_value()) << *p.error;
  const ScenarioConfig& c = p.config;
  EXPECT_EQ(c.algorithm, Algorithm::Push);
  EXPECT_EQ(c.nodes, 40u);
  EXPECT_DOUBLE_EQ(c.link_error_rate, 0.05);
  EXPECT_DOUBLE_EQ(c.publish_rate_hz, 5.0);
  EXPECT_EQ(c.seed, 9u);
  EXPECT_EQ(c.gossip.buffer_size, 700u);
  EXPECT_EQ(c.gossip.interval, Duration::millis(20));
  EXPECT_DOUBLE_EQ(c.gossip.forward_probability, 0.8);
  EXPECT_DOUBLE_EQ(c.gossip.source_probability, 0.3);
  EXPECT_EQ(c.gossip.max_hops, 8u);
  EXPECT_EQ(c.patterns_per_subscriber, 4u);
  EXPECT_EQ(c.patterns_per_event, 2u);
  EXPECT_EQ(c.pattern_universe, 50u);
  EXPECT_EQ(c.measure, Duration::seconds(2.5));
  EXPECT_EQ(c.warmup, Duration::seconds(0.5));
  EXPECT_EQ(c.recovery_horizon, Duration::seconds(4.0));
  EXPECT_DOUBLE_EQ(c.effective_oob_loss(), 0.02);
  EXPECT_TRUE(p.emit_csv);
}

TEST(Cli, ReconfigDefaultsToReliableLinks) {
  const CliParse p = parse({"--reconfig=0.2"});
  ASSERT_FALSE(p.error.has_value());
  ASSERT_TRUE(p.config.reconfiguration_interval.has_value());
  EXPECT_EQ(*p.config.reconfiguration_interval, Duration::millis(200));
  EXPECT_DOUBLE_EQ(p.config.link_error_rate, 0.0);
}

TEST(Cli, ReconfigWithExplicitEpsilonKeepsIt) {
  const CliParse p = parse({"--reconfig=0.2", "--epsilon=0.05"});
  ASSERT_FALSE(p.error.has_value());
  EXPECT_DOUBLE_EQ(p.config.link_error_rate, 0.05);
}

TEST(Cli, RouteRepairModes) {
  EXPECT_EQ(parse({"--route-repair=protocol"}).config.route_repair,
            ScenarioConfig::RouteRepair::Protocol);
  EXPECT_EQ(parse({"--route-repair=oracle"}).config.route_repair,
            ScenarioConfig::RouteRepair::Oracle);
  EXPECT_TRUE(parse({"--route-repair=magic"}).error.has_value());
}

TEST(Cli, HelpFlag) {
  EXPECT_TRUE(parse({"--help"}).show_help);
  EXPECT_TRUE(parse({"-h"}).show_help);
  EXPECT_NE(cli_usage().find("--algorithm"), std::string::npos);
}

TEST(Cli, RejectsUnknownFlagsAndBadValues) {
  EXPECT_TRUE(parse({"--bogus=1"}).error.has_value());
  EXPECT_TRUE(parse({"--nodes=abc"}).error.has_value());
  EXPECT_TRUE(parse({"--nodes=1"}).error.has_value());     // < 2
  EXPECT_TRUE(parse({"--epsilon=1.5"}).error.has_value());
  EXPECT_TRUE(parse({"--algorithm=magic"}).error.has_value());
  EXPECT_TRUE(parse({"stray"}).error.has_value());
  EXPECT_TRUE(parse({"--interval=-0.1"}).error.has_value());
}

TEST(Cli, MaxHopsSetsTheDigestTtlFromOneUp) {
  // The tree default stays unless the flag is given; the scale figures'
  // cap of 8 for cyclic overlays is reachable from the command line.
  EXPECT_EQ(parse({}).config.gossip.max_hops, GossipConfig{}.max_hops);
  EXPECT_EQ(parse({"--max-hops=1"}).config.gossip.max_hops, 1u);
  EXPECT_EQ(parse({"--max-hops=4294967295"}).config.gossip.max_hops,
            4294967295u);
  for (const char* bad : {"--max-hops=0", "--max-hops=-1", "--max-hops=",
                          "--max-hops=2.5", "--max-hops=4294967296"}) {
    EXPECT_TRUE(parse({bad}).error.has_value()) << bad;
  }
  EXPECT_NE(cli_usage().find("--max-hops"), std::string::npos);
}

TEST(Cli, AlgorithmFlagAcceptsTheClusterDirectiveNames) {
  const std::string cluster =
      "node 0 127.0.0.1 0\n"
      "node 1 127.0.0.1 0\n"
      "link 0 1\n"
      "sub 1 0\n";
  for (const char* name :
       {"no-recovery", "none", "push", "subscriber-pull", "publisher-pull",
        "combined-pull", "random-pull", "lazy-pull", "Push", "combined"}) {
    const CliParse p = parse_cli({std::string("--algorithm=") + name});
    try {
      const Algorithm a =
          runtime::parse_cluster_config(cluster + "algorithm " + name + "\n")
              .algorithm;
      ASSERT_FALSE(p.error.has_value()) << name << ": " << *p.error;
      EXPECT_EQ(p.config.algorithm, a) << name;
    } catch (const std::invalid_argument&) {
      EXPECT_TRUE(p.error.has_value()) << name;
    }
  }
}

TEST(Cli, ParsedConfigValidates) {
  const CliParse p = parse({"--algorithm=random-pull", "--nodes=30",
                            "--measure=1"});
  ASSERT_FALSE(p.error.has_value());
  p.config.validate();  // must not die
}

}  // namespace
}  // namespace epicast
