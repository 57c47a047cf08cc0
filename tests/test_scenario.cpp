// Integration tests on whole scenarios: determinism, the paper's headline
// qualitative claims on small instances, the reconfiguration scenario, and
// config plumbing. Sizes are kept small so the suite stays fast.
#include "epicast/scenario/runner.hpp"

#include <gtest/gtest.h>

#include "epicast/scenario/config.hpp"

namespace epicast {
namespace {

ScenarioConfig small(Algorithm algorithm, std::uint64_t seed = 11) {
  ScenarioConfig cfg = ScenarioConfig::paper_defaults(algorithm);
  cfg.nodes = 30;
  cfg.seed = seed;
  cfg.warmup = Duration::seconds(1.0);
  cfg.measure = Duration::seconds(2.0);
  return cfg;
}

TEST(Scenario, SameSeedBitIdenticalResults) {
  const ScenarioResult a = run_scenario(small(Algorithm::CombinedPull));
  const ScenarioResult b = run_scenario(small(Algorithm::CombinedPull));
  EXPECT_EQ(a.events_published, b.events_published);
  EXPECT_EQ(a.expected_pairs, b.expected_pairs);
  EXPECT_EQ(a.delivered_pairs, b.delivered_pairs);
  EXPECT_EQ(a.recovered_pairs, b.recovered_pairs);
  EXPECT_EQ(a.sim_events_executed, b.sim_events_executed);
  EXPECT_DOUBLE_EQ(a.delivery_rate, b.delivery_rate);
}

TEST(Scenario, DifferentSeedsDiffer) {
  const ScenarioResult a = run_scenario(small(Algorithm::NoRecovery, 1));
  const ScenarioResult b = run_scenario(small(Algorithm::NoRecovery, 2));
  EXPECT_NE(a.sim_events_executed, b.sim_events_executed);
}

TEST(Scenario, BaselineMatchesLinkLossAnalytically) {
  // With per-hop loss ε and mean subscriber distance d̄, the no-recovery
  // delivery rate is ≈ (1-ε)^d̄. Loose bounds keep this robust across seeds.
  ScenarioConfig cfg = small(Algorithm::NoRecovery);
  cfg.link_error_rate = 0.05;
  const ScenarioResult r = run_scenario(cfg);
  EXPECT_GT(r.delivery_rate, 0.6);
  EXPECT_LT(r.delivery_rate, 0.92);
  EXPECT_EQ(r.recovered_pairs, 0u);
  EXPECT_EQ(r.traffic.gossip_sends(), 0u);
}

TEST(Scenario, ZeroLossDeliversEverything) {
  ScenarioConfig cfg = small(Algorithm::NoRecovery);
  cfg.link_error_rate = 0.0;
  const ScenarioResult r = run_scenario(cfg);
  EXPECT_DOUBLE_EQ(r.delivery_rate, 1.0);
}

class RecoveryImproves : public ::testing::TestWithParam<Algorithm> {};

TEST_P(RecoveryImproves, OverNoRecoveryUnderLossyLinks) {
  const ScenarioResult base = run_scenario(small(Algorithm::NoRecovery));
  const ScenarioResult rec = run_scenario(small(GetParam()));
  EXPECT_GT(rec.delivery_rate, base.delivery_rate + 0.03)
      << to_string(GetParam());
  EXPECT_GT(rec.recovered_pairs, 0u);
  EXPECT_GT(rec.traffic.gossip_sends(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, RecoveryImproves,
                         ::testing::Values(Algorithm::Push,
                                           Algorithm::SubscriberPull,
                                           Algorithm::PublisherPull,
                                           Algorithm::CombinedPull,
                                           Algorithm::RandomPull));

TEST(Scenario, CombinedPullBeatsEitherPullAlone) {
  // Averaged over a few seeds: at 30 nodes a single run's margin between
  // combined and publisher-pull is within seed noise.
  const auto mean_delivery = [](Algorithm a) {
    double sum = 0.0;
    for (const std::uint64_t seed : {11u, 12u, 13u}) {
      sum += run_scenario(small(a, seed)).delivery_rate;
    }
    return sum / 3.0;
  };
  const double combined = mean_delivery(Algorithm::CombinedPull);
  const double sub = mean_delivery(Algorithm::SubscriberPull);
  const double pub = mean_delivery(Algorithm::PublisherPull);
  EXPECT_GT(combined, sub);
  EXPECT_GT(combined, pub);
}

TEST(Scenario, ReconfigurationScenarioLosesAndRecovers) {
  ScenarioConfig churny = small(Algorithm::NoRecovery);
  churny.link_error_rate = 0.0;  // losses come from reconfiguration only
  churny.reconfiguration_interval = Duration::millis(200);
  const ScenarioResult base = run_scenario(churny);
  EXPECT_GT(base.reconfig_breaks, 5u);
  // The very last break's repair may still be pending when the run ends.
  EXPECT_GE(base.reconfig_repairs + 1, base.reconfig_breaks);
  EXPECT_GT(base.drops_no_link, 0u);
  EXPECT_LT(base.delivery_rate, 0.999);  // churn does cause loss
  EXPECT_GT(base.delivery_rate, 0.5);

  churny.algorithm = Algorithm::CombinedPull;
  const ScenarioResult rec = run_scenario(churny);
  EXPECT_GT(rec.delivery_rate, base.delivery_rate);
  EXPECT_GT(rec.delivery_rate, 0.97);
}

TEST(Scenario, OverlappingReconfigurationsStillRun) {
  ScenarioConfig cfg = small(Algorithm::CombinedPull);
  cfg.link_error_rate = 0.0;
  cfg.reconfiguration_interval = Duration::millis(30);  // overlapping
  cfg.measure = Duration::seconds(1.5);
  const ScenarioResult r = run_scenario(cfg);
  EXPECT_GT(r.reconfig_breaks, 20u);
  EXPECT_GT(r.delivery_rate, 0.8);
}

TEST(Scenario, ReceiversPerEventMatchesClosedForm) {
  ScenarioConfig cfg = small(Algorithm::NoRecovery);
  cfg.link_error_rate = 0.0;
  const ScenarioResult r = run_scenario(cfg);
  // E[receivers] ≈ (N-1) · P(match), with P from the hypergeometric form.
  const double p_match = 1.0 - (67.0 / 70.0) * (66.0 / 69.0);
  EXPECT_NEAR(r.receivers_per_event, 29.0 * p_match, 0.6);
}

TEST(Scenario, EventualRateNeverBelowHorizonRate) {
  const ScenarioResult r = run_scenario(small(Algorithm::CombinedPull));
  EXPECT_GE(r.eventual_delivery_rate, r.delivery_rate);
  EXPECT_LE(r.delivery_rate, 1.0);
}

TEST(Scenario, GossipTotalsAreConsistent) {
  const ScenarioResult r = run_scenario(small(Algorithm::Push));
  EXPECT_GT(r.gossip_totals.rounds, 0u);
  EXPECT_GE(r.gossip_totals.events_served, r.gossip_totals.events_recovered);
  EXPECT_GT(r.gossip_totals.digests_originated, 0u);
}

TEST(Scenario, LowLoadPullGossipsLessThanPush) {
  // The paper's Fig. 10 claim: at low publish rate and low error rate,
  // reactive pull sends far fewer gossip messages than proactive push.
  ScenarioConfig cfg = small(Algorithm::Push);
  cfg.publish_rate_hz = 5.0;
  cfg.link_error_rate = 0.01;
  const ScenarioResult push = run_scenario(cfg);
  cfg.algorithm = Algorithm::CombinedPull;
  const ScenarioResult pull = run_scenario(cfg);
  EXPECT_LT(pull.gossip_msgs_per_dispatcher,
            0.6 * push.gossip_msgs_per_dispatcher);
}

TEST(ScenarioConfig, DescribeMentionsKeyParameters) {
  const ScenarioConfig cfg = ScenarioConfig::paper_defaults(Algorithm::Push);
  const std::string text = cfg.describe();
  EXPECT_NE(text.find("N (dispatchers)"), std::string::npos);
  EXPECT_NE(text.find("push"), std::string::npos);
  EXPECT_NE(text.find("0.030000s"), std::string::npos);  // T
  EXPECT_NE(text.find("1500"), std::string::npos);       // beta
}

TEST(ScenarioConfig, TimelineAccessors) {
  ScenarioConfig cfg;
  cfg.subscription_phase = Duration::seconds(0.5);
  cfg.warmup = Duration::seconds(1.5);
  cfg.measure = Duration::seconds(10.0);
  EXPECT_EQ(cfg.publish_start(), SimTime::seconds(0.5));
  EXPECT_EQ(cfg.window_start(), SimTime::seconds(2.0));
  EXPECT_EQ(cfg.window_end(), SimTime::seconds(12.0));
  EXPECT_GT(cfg.end_time(), cfg.window_end());
}

TEST(ScenarioConfig, OobLossDefaultsToLinkLoss) {
  ScenarioConfig cfg;
  cfg.link_error_rate = 0.07;
  EXPECT_DOUBLE_EQ(cfg.effective_oob_loss(), 0.07);
  cfg.oob_loss_rate = 0.01;
  EXPECT_DOUBLE_EQ(cfg.effective_oob_loss(), 0.01);
}

TEST(ScenarioConfigDeath, ValidateCatchesNonsense) {
  ScenarioConfig cfg;
  cfg.patterns_per_subscriber = 200;  // exceeds the universe
  EXPECT_DEATH(cfg.validate(), "within the pattern universe");
}

TEST(ProfileEnv, AcceptsExactlyTheDocumentedSpellings) {
  for (const char* off : {"", "0", "off", "OFF", "false"}) {
    EXPECT_FALSE(profile_from_env(off)) << off;
  }
  EXPECT_FALSE(profile_from_env(nullptr));
  for (const char* on : {"1", "on", "ON", "true"}) {
    EXPECT_TRUE(profile_from_env(on)) << on;
  }
}

TEST(ProfileEnvDeathTest, RejectsUnknownSpellingsNamingTheVariable) {
  // These used to mean "off" without a word.
  for (const char* bad : {"yes", "On", "TRUE", "2", " 1", "1 ", "enabled"}) {
    EXPECT_DEATH((void)profile_from_env(bad), "EPICAST_PROFILE") << bad;
  }
}

}  // namespace
}  // namespace epicast
