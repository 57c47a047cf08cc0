// Shared helpers for the figure-reproduction benchmarks.
//
// Every bench binary regenerates one figure of the paper: it builds the
// sweep, runs it on the parallel SweepRunner (scenarios are deterministic;
// progress goes to stderr), and prints the figure's series as an aligned
// text table on stdout, followed by a short note about the
// paper-vs-measured shape.
//
// Configuration is parsed exactly once into BenchEnv:
//   EPICAST_BENCH_FAST=1   shrink measurement windows and sweeps (a switch,
//                          spelled as env::read_switch reads it)
//   EPICAST_JOBS=N         worker threads (also --jobs=N)
//   EPICAST_BENCH_JSON=F   machine-readable output path (also --json=F)
// The full (default) configuration is what EXPERIMENTS.md records.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "epicast/epicast.hpp"
#include "scenario_builders.hpp"

namespace epicast::bench {

/// Process-wide bench configuration. Environment variables are read once,
/// on first access; init() lets --flags override them.
struct BenchEnv {
  bool fast = false;          ///< EPICAST_BENCH_FAST: reduced windows/sweeps
  unsigned jobs = 0;          ///< 0 = EPICAST_JOBS / hardware concurrency
  std::string json_path;      ///< "" = no JSON output

  static BenchEnv& mutable_instance() {
    static BenchEnv env = from_environment();
    return env;
  }
  static const BenchEnv& get() { return mutable_instance(); }

 private:
  static BenchEnv from_environment() {
    BenchEnv e;
    e.fast = env::read_switch(env::process_env, "EPICAST_BENCH_FAST", false);
    e.jobs = env::settings().jobs;
    if (const char* v = env::process_env("EPICAST_BENCH_JSON")) {
      e.json_path = v;
    }
    return e;
  }
};

/// Parses bench command-line flags (--jobs=N, --fast, --json=PATH) over the
/// environment defaults. Call first thing in main().
inline void init(int argc, char** argv) {
  BenchEnv& env = BenchEnv::mutable_instance();
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--jobs=", 7) == 0) {
      char* end = nullptr;
      const unsigned long n = std::strtoul(arg + 7, &end, 10);
      if (end != arg + 7 && *end == '\0' && n > 0 && n < 4096) {
        env.jobs = static_cast<unsigned>(n);
      } else {
        std::fprintf(stderr, "ignoring bad flag: %s\n", arg);
      }
    } else if (std::strcmp(arg, "--fast") == 0) {
      env.fast = true;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      env.json_path = arg + 7;
    } else {
      std::fprintf(stderr,
                   "unknown flag %s (supported: --jobs=N --fast "
                   "--json=PATH)\n",
                   arg);
    }
  }
}

inline bool fast_mode() { return BenchEnv::get().fast; }

/// Runs a figure sweep on the configured number of jobs, with progress.
inline std::vector<LabeledResult> run_figure_sweep(
    std::vector<LabeledConfig> configs) {
  SweepRunner runner(SweepOptions{BenchEnv::get().jobs, /*progress=*/true});
  return runner.run(std::move(configs));
}

/// The six curves of the paper's delivery figures, in the legend's order.
inline const std::vector<Algorithm>& all_algorithms() {
  static const std::vector<Algorithm> algos = {
      Algorithm::NoRecovery,     Algorithm::RandomPull,
      Algorithm::SubscriberPull, Algorithm::PublisherPull,
      Algorithm::CombinedPull,   Algorithm::Push,
  };
  return algos;
}

/// The figure's full measurement window, shrunk under fast mode. Pass the
/// result as the measure_seconds of a figures:: builder.
inline double measure_s(double measure_seconds) {
  return fast_mode() ? std::min(1.5, measure_seconds) : measure_seconds;
}

/// Paper defaults (Fig. 2) with a bench-appropriate measurement window:
/// figures::base plus fast-mode window shrinking.
inline ScenarioConfig base_config(Algorithm algorithm,
                                  double measure_seconds) {
  return figures::base(algorithm, measure_s(measure_seconds));
}

inline std::string algo_label(Algorithm a) { return to_string(a); }

inline void print_header(const char* figure, const char* what) {
  std::printf("==========================================================\n");
  std::printf("%s — %s\n", figure, what);
  std::printf("==========================================================\n");
  if (fast_mode()) std::printf("(EPICAST_BENCH_FAST=1: reduced windows)\n");
}

inline void print_note(const char* note) {
  std::printf("\npaper-shape check: %s\n\n", note);
}

/// Builds one TimeSeries per algorithm from per-(x, algorithm) results laid
/// out row-major, extracting `extract` from each result.
template <typename Extract>
std::vector<TimeSeries> series_by_algorithm(
    const std::vector<Algorithm>& algos, const std::vector<double>& xs,
    const std::vector<LabeledResult>& results, Extract&& extract) {
  std::vector<TimeSeries> series;
  series.reserve(algos.size());
  for (Algorithm a : algos) series.emplace_back(algo_label(a));
  std::size_t idx = 0;
  for (double x : xs) {
    for (std::size_t s = 0; s < algos.size(); ++s) {
      series[s].add(x, extract(results[idx++].result));
    }
  }
  return series;
}

}  // namespace epicast::bench
