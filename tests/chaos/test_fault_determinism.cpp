// Fault-plan determinism: a chaos run is a pure function of (config, seed).
// Same plan + same seed must be bit-identical — including the JSON report,
// which CI diffs byte-for-byte — and the plan must demonstrably fire, so
// the identity is not vacuous.
#include <gtest/gtest.h>

#include "epicast/fault/plan.hpp"
#include "epicast/metrics/result_json.hpp"
#include "epicast/scenario/runner.hpp"

namespace epicast {
namespace {

ScenarioConfig chaos_config(std::uint64_t seed) {
  ScenarioConfig cfg = ScenarioConfig::paper_defaults(Algorithm::CombinedPull);
  cfg.nodes = 16;
  cfg.seed = seed;
  cfg.link_error_rate = 0.0;  // all loss comes from the injected faults
  cfg.publish_rate_hz = 25.0;
  cfg.warmup = Duration::seconds(0.5);
  cfg.measure = Duration::seconds(1.0);
  cfg.recovery_horizon = Duration::seconds(1.0);
  return cfg;
}

ScenarioConfig with_plan(std::uint64_t seed, const std::string& spec) {
  ScenarioConfig cfg = chaos_config(seed);
  std::string error;
  const auto plan = fault::parse_plan(spec, &error);
  EXPECT_TRUE(plan.has_value()) << error;
  cfg.faults = *plan;
  return cfg;
}

constexpr const char* kPlan =
    "churn(period=0.3,down=0.1,stop=1);burst(p=0.08,r=0.5,start=0.5,stop=1.5)";

TEST(FaultDeterminism, SamePlanSameSeedIsBitIdentical) {
  const ScenarioConfig cfg = with_plan(7, kPlan);
  const ScenarioResult a = run_scenario(cfg);
  const ScenarioResult b = run_scenario(cfg);

  // The identity must not be vacuous: both fault processes actually fired.
  EXPECT_GT(a.fault.stats.crashes, 0u);
  EXPECT_GT(a.fault.stats.burst_drops, 0u);

  EXPECT_EQ(a.sim_events_executed, b.sim_events_executed);
  EXPECT_EQ(a.delivered_pairs, b.delivered_pairs);
  EXPECT_EQ(a.recovered_pairs, b.recovered_pairs);
  EXPECT_EQ(a.fault.stats.crashes, b.fault.stats.crashes);
  EXPECT_EQ(a.fault.stats.crash_drops, b.fault.stats.crash_drops);
  EXPECT_EQ(a.fault.stats.burst_drops, b.fault.stats.burst_drops);
  EXPECT_EQ(a.fault.stats.bursts_entered, b.fault.stats.bursts_entered);

  // The byte-level contract the CI determinism smoke relies on:
  // epicast_sim --faults … --json twice must diff clean.
  EXPECT_EQ(metrics::result_json(a), metrics::result_json(b));
}

TEST(FaultDeterminism, DifferentSeedsProduceDifferentRuns) {
  const ScenarioResult a = run_scenario(with_plan(1, kPlan));
  const ScenarioResult b = run_scenario(with_plan(2, kPlan));
  EXPECT_NE(metrics::result_json(a), metrics::result_json(b));
}

TEST(FaultDeterminism, DifferentPlansProduceDifferentRuns) {
  const ScenarioResult churned = run_scenario(with_plan(3, kPlan));
  const ScenarioResult clean = run_scenario(chaos_config(3));
  EXPECT_TRUE(clean.fault.epochs.empty());
  EXPECT_EQ(clean.fault.stats.crashes, 0u);
  EXPECT_NE(metrics::result_json(churned), metrics::result_json(clean));
}

}  // namespace
}  // namespace epicast
