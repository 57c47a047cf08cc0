// Randomized scenario fuzz: each iteration draws a scenario (node count,
// algorithm, loss, sizing, optional churn/overlay variation), runs it twice
// with the conformance oracles live, and asserts both runs produce the same
// result_json byte for byte. The oracles abort on any violated safety
// property, so every draw is also a conformance check; the repeat catches
// state leaking between runs or any draw that depends on something other
// than (config, seed).
//
// EPICAST_STRESS_ITERS sets the iteration count (CI runs 200 under
// ASan+UBSan); the default is sized for the tier-1 budget on small hosts.
// The iterations are drawn up front and run as four chunks, each its own
// ctest entry.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "epicast/common/env.hpp"
#include "epicast/common/rng.hpp"
#include "epicast/metrics/result_json.hpp"
#include "epicast/scenario/runner.hpp"

namespace epicast {
namespace {

using metrics::result_json;

int stress_iterations() {
  return static_cast<int>(env::read_count(env::process_env,
                                          "EPICAST_STRESS_ITERS", 1, 100000,
                                          40));
}

/// Every iteration's draws, in iteration order from one Rng, so a chunk
/// runs exactly the scenarios the single sweep ran at the same indexes.
std::vector<ScenarioConfig> draw_cases(int iters) {
  Rng rng(0xE51CA57);
  constexpr Algorithm kAlgorithms[] = {
      Algorithm::NoRecovery,     Algorithm::Push,
      Algorithm::SubscriberPull, Algorithm::PublisherPull,
      Algorithm::CombinedPull,   Algorithm::RandomPull,
  };
  std::vector<ScenarioConfig> cases;
  cases.reserve(static_cast<std::size_t>(iters));
  for (int i = 0; i < iters; ++i) {
    const Algorithm a = kAlgorithms[rng.next_below(6)];
    ScenarioConfig cfg = ScenarioConfig::paper_defaults(a);
    cfg.seed = 1000 + static_cast<std::uint64_t>(i);
    cfg.nodes = 10 + static_cast<std::uint32_t>(rng.next_below(31));
    cfg.warmup = Duration::seconds(0.2);
    cfg.measure = Duration::seconds(0.5 + 0.1 * rng.next_below(4));
    cfg.recovery_horizon = Duration::seconds(0.5);
    cfg.link_error_rate = 0.05 * rng.next_below(5);  // {0 .. 0.2}
    cfg.sizing_mode =
        rng.next_below(2) == 0 ? SizingMode::Nominal : SizingMode::Wire;
    cfg.oracles = true;
    if (rng.next_below(4) == 0) {
      cfg.reconfiguration_interval = Duration::seconds(0.25);
      cfg.route_repair = rng.next_below(2) == 0
                             ? ScenarioConfig::RouteRepair::Oracle
                             : ScenarioConfig::RouteRepair::Protocol;
    }
    if (rng.next_below(4) == 0) {
      // Cyclic overlays require the oracle bootstrap (flooding does not
      // converge routes on them).
      cfg.overlay = OverlayKind::RandomRegular;
      cfg.overlay_degree = 4;
      cfg.bootstrap = ScenarioConfig::SubscriptionBootstrap::Oracle;
    }
    cases.push_back(cfg);
  }
  return cases;
}

/// The sweep runs as kChunks contiguous slices of the iteration range, one
/// ctest entry each (tests/stress/CMakeLists.txt), so no single entry
/// carries the whole sweep's time.
constexpr int kChunks = 4;

class ScenarioStress : public ::testing::TestWithParam<int> {};

TEST_P(ScenarioStress, RandomScenariosRepeatByteForByte) {
  const int iters = stress_iterations();
  const std::vector<ScenarioConfig> cases = draw_cases(iters);
  const int chunk = GetParam();
  const int begin = iters * chunk / kChunks;
  const int end = iters * (chunk + 1) / kChunks;
  for (int i = begin; i < end; ++i) {
    const ScenarioConfig& cfg = cases[static_cast<std::size_t>(i)];
    const ScenarioResult first = run_scenario(cfg);
    EXPECT_GT(first.oracle_checks, 0u) << "iteration " << i;
    const std::string again = result_json(run_scenario(cfg));
    EXPECT_EQ(again, result_json(first))
        << "iteration " << i << ": algorithm=" << to_string(cfg.algorithm)
        << " nodes=" << cfg.nodes << " loss=" << cfg.link_error_rate
        << " sizing=" << to_string(cfg.sizing_mode) << " seed=" << cfg.seed;
    if (HasFailure()) break;  // one full diff is enough to debug
  }
}

INSTANTIATE_TEST_SUITE_P(Chunks, ScenarioStress, ::testing::Range(0, kChunks));

}  // namespace
}  // namespace epicast
