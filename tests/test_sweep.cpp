// SweepRunner tests: serial-vs-parallel equivalence (the determinism
// contract under parallel execution), input-order preservation, timing
// stats, and jobs resolution.
#include "epicast/scenario/sweep.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>

namespace epicast {
namespace {

ScenarioConfig tiny(Algorithm a, std::uint64_t seed) {
  ScenarioConfig cfg = ScenarioConfig::paper_defaults(a);
  cfg.nodes = 20;
  cfg.seed = seed;
  cfg.warmup = Duration::seconds(0.3);
  cfg.measure = Duration::seconds(0.8);
  cfg.recovery_horizon = Duration::seconds(0.8);
  return cfg;
}

std::vector<LabeledConfig> small_sweep() {
  std::vector<LabeledConfig> configs;
  int i = 0;
  for (Algorithm a : {Algorithm::NoRecovery, Algorithm::Push,
                      Algorithm::CombinedPull}) {
    for (const double eps : {0.05, 0.1}) {
      ScenarioConfig cfg = tiny(a, 2026);
      cfg.link_error_rate = eps;
      configs.push_back({"cfg" + std::to_string(i++), cfg});
    }
  }
  return configs;
}

void expect_identical(const ScenarioResult& a, const ScenarioResult& b) {
  EXPECT_EQ(a.events_published, b.events_published);
  EXPECT_EQ(a.expected_pairs, b.expected_pairs);
  EXPECT_EQ(a.delivered_pairs, b.delivered_pairs);
  EXPECT_EQ(a.recovered_pairs, b.recovered_pairs);
  EXPECT_EQ(a.sim_events_executed, b.sim_events_executed);
  EXPECT_EQ(a.traffic.gossip_sends(), b.traffic.gossip_sends());
  EXPECT_EQ(a.traffic.event_sends(), b.traffic.event_sends());
  EXPECT_DOUBLE_EQ(a.delivery_rate, b.delivery_rate);
  ASSERT_EQ(a.delivery_series.size(), b.delivery_series.size());
  for (std::size_t p = 0; p < a.delivery_series.size(); ++p) {
    EXPECT_DOUBLE_EQ(a.delivery_series.points()[p].y,
                     b.delivery_series.points()[p].y);
  }
}

TEST(SweepRunner, SerialAndParallelResultsAreIdentical) {
  const std::vector<LabeledConfig> configs = small_sweep();

  SweepRunner serial(SweepOptions{1, /*progress=*/false});
  SweepRunner parallel(SweepOptions{4, /*progress=*/false});
  const auto a = serial.run(configs);
  const auto b = parallel.run(configs);

  ASSERT_EQ(a.size(), configs.size());
  ASSERT_EQ(b.size(), configs.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(configs[i].label);
    expect_identical(a[i].result, b[i].result);
  }
}

TEST(SweepRunner, ResultsComeBackInInputOrder) {
  const std::vector<LabeledConfig> configs = small_sweep();
  SweepRunner runner(SweepOptions{3, /*progress=*/false});
  const auto results = runner.run(configs);
  ASSERT_EQ(results.size(), configs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].label, configs[i].label);
  }
}

TEST(SweepRunner, UnlabeledOverloadMatchesLabeled) {
  const std::vector<LabeledConfig> labeled = small_sweep();
  std::vector<ScenarioConfig> bare;
  for (const LabeledConfig& lc : labeled) bare.push_back(lc.config);

  SweepRunner runner(SweepOptions{2, /*progress=*/false});
  const auto a = runner.run(bare);
  const auto b = runner.run(labeled);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_identical(a[i], b[i].result);
  }
}

TEST(SweepRunner, RecordsPerScenarioAndAggregateWallTime) {
  const std::vector<LabeledConfig> configs = small_sweep();
  SweepRunner runner(SweepOptions{2, /*progress=*/false});
  const auto results = runner.run(configs);
  (void)results;

  const SweepStats& stats = runner.last_stats();
  EXPECT_EQ(stats.jobs_used, 2u);
  EXPECT_EQ(stats.scenarios, configs.size());
  ASSERT_EQ(stats.scenario_wall_seconds.size(), configs.size());
  double sum = 0.0;
  for (const double s : stats.scenario_wall_seconds) {
    EXPECT_GT(s, 0.0);
    sum += s;
  }
  EXPECT_GT(stats.wall_seconds, 0.0);
  // Aggregate wall time can't exceed the summed per-scenario time (workers
  // overlap) but must cover at least the longest scenario.
  EXPECT_LE(stats.wall_seconds, sum + 1.0);
  EXPECT_GT(stats.sim_events_executed, 0u);
  EXPECT_GT(stats.scenarios_per_second(), 0.0);
  EXPECT_GT(stats.events_per_second(), 0.0);
}

TEST(SweepRunner, EmptySweepIsANoop) {
  SweepRunner runner(SweepOptions{4, /*progress=*/false});
  EXPECT_TRUE(runner.run(std::vector<ScenarioConfig>{}).empty());
  EXPECT_EQ(runner.last_stats().scenarios, 0u);
}

TEST(SweepRunner, ResolveJobsPrefersExplicitThenEnvThenHardware) {
  // The second argument is EPICAST_JOBS as the environment reader parsed
  // it; 0 means auto.
  EXPECT_EQ(SweepRunner::resolve_jobs(5, 3), 5u);
  EXPECT_EQ(SweepRunner::resolve_jobs(0, 3), 3u);
  EXPECT_EQ(SweepRunner::resolve_jobs(0, 0),
            SweepRunner::available_parallelism());
}

TEST(SweepRunner, AvailableParallelismIsClampedToAffinity) {
  const unsigned avail = SweepRunner::available_parallelism();
  EXPECT_GE(avail, 1u);
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) {
    EXPECT_LE(avail, hw);
  }

  // Auto-detection (no explicit request, no env) must resolve to exactly
  // the clamped value — oversubscribing a restricted affinity mask is the
  // regression this pins.
  EXPECT_EQ(SweepRunner::resolve_jobs(0, 0), avail);
  // Explicit requests are honoured verbatim, even beyond the clamp.
  EXPECT_EQ(SweepRunner::resolve_jobs(avail + 7, 0), avail + 7);
}

}  // namespace
}  // namespace epicast
