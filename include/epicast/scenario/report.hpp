// epicast — sweep execution and reporting helpers for benches/examples.
//
// Every paper figure is a sweep: a list of (label, config) pairs whose
// results become rows of a text table. Scenarios are independent and
// deterministic, so sweeps run on a thread pool; results come back in input
// order.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "epicast/scenario/config.hpp"
#include "epicast/scenario/runner.hpp"
#include "epicast/scenario/sweep.hpp"

namespace epicast {

/// Runs all configs on a SweepRunner with `max_parallel` worker threads
/// (0 = EPICAST_JOBS / hardware concurrency). Prints one progress line per
/// finished run to stderr when `verbose`. Results are returned in input
/// order.
[[nodiscard]] std::vector<LabeledResult> run_sweep(
    std::vector<LabeledConfig> configs, unsigned max_parallel = 0,
    bool verbose = true);

/// One-paragraph human summary of a run (examples use this).
void print_summary(std::ostream& os, const std::string& label,
                   const ScenarioResult& result);

/// Replicated execution over consecutive seeds — the paper's §IV-A
/// methodology check ("results of 10 simulations ran with different random
/// seeds showed that variations are limited, around 1%-2%").
struct ReplicatedResult {
  std::vector<ScenarioResult> runs;
  double mean_delivery = 0.0;
  double stddev_delivery = 0.0;     ///< population standard deviation
  double min_delivery = 1.0;
  double max_delivery = 0.0;
  double mean_gossip_per_dispatcher = 0.0;
  double mean_gossip_event_ratio = 0.0;
};

[[nodiscard]] ReplicatedResult run_replicated(ScenarioConfig base,
                                              unsigned replicas,
                                              unsigned max_parallel = 0);

/// Writes series sharing an x-axis as CSV: header "x,name1,name2,...",
/// one row per x value, empty cells for missing points.
void write_series_csv(std::ostream& os, const std::string& x_label,
                      const std::vector<TimeSeries>& series);

/// Renders a figure table: one row per x value, one column per algorithm
/// series. `extract` maps a result to the y value.
[[nodiscard]] std::string sweep_table(
    const std::string& x_label,
    const std::vector<std::string>& series_names,
    const std::vector<double>& xs,
    const std::vector<LabeledResult>& results,  // row-major: x × series
    const std::function<double(const ScenarioResult&)>& extract);

}  // namespace epicast
