// Randomized stress sweep over the serial-vs-sharded equivalence space:
// each iteration draws a scenario (node count, shard count, worker-thread
// count, algorithm, loss, sizing, optional churn/overlay variation) and
// asserts the sharded run's result_json is byte-identical to the serial
// one. CI runs this at
// EPICAST_STRESS_ITERS=200 under ASan and TSan; the default is sized for
// the tier-1 budget on small hosts. The iterations are drawn up front and
// run as four chunks, each its own ctest entry.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "epicast/common/rng.hpp"
#include "epicast/metrics/result_json.hpp"
#include "epicast/scenario/runner.hpp"

namespace epicast {
namespace {

using metrics::result_json;

int stress_iterations() {
  const char* env = std::getenv("EPICAST_STRESS_ITERS");
  if (env != nullptr && *env != '\0') {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<int>(v);
  }
  return 40;
}

/// One iteration: a scenario and the sharded/threaded point it must match.
struct StressCase {
  ScenarioConfig cfg;
  std::uint32_t shards = 1;
  std::uint32_t threads = 1;
};

/// Every iteration's draws, in iteration order from one Rng, so a chunk
/// runs exactly the scenarios the single sweep ran at the same indexes.
std::vector<StressCase> draw_cases(int iters) {
  Rng rng(0xE51CA57);
  constexpr Algorithm kAlgorithms[] = {
      Algorithm::NoRecovery,     Algorithm::Push,
      Algorithm::SubscriberPull, Algorithm::PublisherPull,
      Algorithm::CombinedPull,   Algorithm::RandomPull,
  };
  std::vector<StressCase> cases;
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
    if (rng.next_below(4) == 0) {
      cfg.reconfiguration_interval = Duration::seconds(0.25);
      cfg.route_repair = rng.next_below(2) == 0
                             ? ScenarioConfig::RouteRepair::Oracle
                             : ScenarioConfig::RouteRepair::Protocol;
    }
    if (rng.next_below(4) == 0) {
      // Cyclic overlays require the oracle bootstrap (flooding does not
      // converge routes on them — the serial path rejects the combination
      // too).
      cfg.overlay = OverlayKind::RandomRegular;
      cfg.overlay_degree = 4;
      cfg.bootstrap = ScenarioConfig::SubscriptionBootstrap::Oracle;
    }
    StressCase c{cfg};
    c.shards = 2 + static_cast<std::uint32_t>(rng.next_below(7));   // 2..8
    c.threads = 1 + static_cast<std::uint32_t>(rng.next_below(4));  // 1..4
    cases.push_back(c);
  }
  return cases;
}

/// The sweep runs as kChunks contiguous slices of the iteration range, one
/// ctest entry each (tests/parallel/CMakeLists.txt), so no single entry
/// carries the whole sweep's time.
constexpr int kChunks = 4;

class ShardStress : public ::testing::TestWithParam<int> {};

TEST_P(ShardStress, RandomScenariosMatchSerialByteForByte) {
  const int iters = stress_iterations();
  const std::vector<StressCase> cases = draw_cases(iters);
  const int chunk = GetParam();
  const int begin = iters * chunk / kChunks;
  const int end = iters * (chunk + 1) / kChunks;
  for (int i = begin; i < end; ++i) {
    const StressCase& c = cases[static_cast<std::size_t>(i)];
    ScenarioConfig cfg = c.cfg;

    cfg.shards = 1;
    cfg.threads = 1;
    const std::string serial = result_json(run_scenario(cfg));
    cfg.shards = c.shards;
    cfg.threads = c.threads;
    const std::string sharded = result_json(run_scenario(cfg));
    EXPECT_EQ(sharded, serial)
        << "iteration " << i << ": algorithm=" << to_string(cfg.algorithm)
        << " nodes=" << cfg.nodes << " shards=" << c.shards
        << " threads=" << c.threads << " loss=" << cfg.link_error_rate
        << " seed=" << cfg.seed;
    if (HasFailure()) break;  // one full diff is enough to debug
  }
}

INSTANTIATE_TEST_SUITE_P(Chunks, ShardStress, ::testing::Range(0, kChunks));

}  // namespace
}  // namespace epicast
