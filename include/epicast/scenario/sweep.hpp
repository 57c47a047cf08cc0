// epicast — parallel sweep engine.
//
// Every paper figure is a sweep of independent deterministic scenarios
// (run_scenario is a pure function of config + seed and shares no state),
// so sweeps parallelize without changing results. SweepRunner owns a fixed
// pool of N worker threads that claim scenarios in input order from a
// shared cursor — no work stealing, no task queue — and write results into
// pre-sized slots, so the output order equals the input order regardless of
// completion order and the run is deterministic for any job count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "epicast/common/env.hpp"
#include "epicast/scenario/config.hpp"
#include "epicast/scenario/runner.hpp"

namespace epicast {

struct LabeledConfig {
  std::string label;
  ScenarioConfig config;
};

struct LabeledResult {
  std::string label;
  ScenarioResult result;
};

struct SweepOptions {
  /// Worker threads. 0 resolves via EPICAST_JOBS, then
  /// hardware_concurrency (see SweepRunner::resolve_jobs).
  unsigned jobs = 0;
  /// Print one progress line per finished scenario to stderr.
  bool progress = true;
};

/// Timing record of the last run() — per-scenario and aggregate wall time.
struct SweepStats {
  unsigned jobs_used = 0;
  double wall_seconds = 0.0;                  ///< whole sweep, start to join
  std::vector<double> scenario_wall_seconds;  ///< input order
  std::uint64_t sim_events_executed = 0;      ///< summed over scenarios
  std::size_t scenarios = 0;

  [[nodiscard]] double scenarios_per_second() const {
    return wall_seconds > 0.0
               ? static_cast<double>(scenarios) / wall_seconds
               : 0.0;
  }
  [[nodiscard]] double events_per_second() const {
    return wall_seconds > 0.0
               ? static_cast<double>(sim_events_executed) / wall_seconds
               : 0.0;
  }
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  /// Worker threads this runner will use (options resolved at construction).
  [[nodiscard]] unsigned jobs() const { return jobs_; }

  /// Runs every config; results come back in input order.
  [[nodiscard]] std::vector<ScenarioResult> run(
      const std::vector<ScenarioConfig>& configs);

  /// As above, with a label carried through to the result and the progress
  /// output.
  [[nodiscard]] std::vector<LabeledResult> run(
      std::vector<LabeledConfig> configs);

  /// Timings of the most recent run().
  [[nodiscard]] const SweepStats& last_stats() const { return stats_; }

  /// `requested`, else `from_env` (EPICAST_JOBS; 0 = auto), else
  /// available_parallelism(), never less than 1. An explicit request (arg
  /// or env) is honored verbatim; only the auto-detected default is clamped
  /// to the CPUs this process may actually run on.
  [[nodiscard]] static unsigned resolve_jobs(
      unsigned requested, unsigned from_env = env::settings().jobs);

  /// CPUs available to this process: hardware_concurrency clamped to the
  /// scheduling affinity mask (a container limited to 1 CPU reports 1 here
  /// even when the machine has more cores). Never less than 1.
  [[nodiscard]] static unsigned available_parallelism();

 private:
  std::vector<ScenarioResult> run_indexed(
      const std::vector<const ScenarioConfig*>& configs,
      const std::vector<const std::string*>& labels);

  SweepOptions options_;
  unsigned jobs_;
  SweepStats stats_;
};

}  // namespace epicast
