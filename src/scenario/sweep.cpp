#include "epicast/scenario/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace epicast {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

SweepRunner::SweepRunner(SweepOptions options)
    : options_(options), jobs_(resolve_jobs(options.jobs)) {}

unsigned SweepRunner::resolve_jobs(unsigned requested, unsigned from_env) {
  if (requested > 0) return requested;
  return from_env > 0 ? from_env : available_parallelism();
}

unsigned SweepRunner::available_parallelism() {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
#if defined(__linux__)
  // hardware_concurrency() reports the machine; a cgroup/affinity-restricted
  // process (CI runners, containers) may be allowed far fewer CPUs. Spawning
  // more workers than that only adds contention.
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int allowed = CPU_COUNT(&mask);
    if (allowed > 0) hw = std::min(hw, static_cast<unsigned>(allowed));
  }
#endif
  return hw;
}

std::vector<ScenarioResult> SweepRunner::run(
    const std::vector<ScenarioConfig>& configs) {
  std::vector<const ScenarioConfig*> ptrs;
  ptrs.reserve(configs.size());
  for (const ScenarioConfig& cfg : configs) ptrs.push_back(&cfg);
  return run_indexed(ptrs, {});
}

std::vector<LabeledResult> SweepRunner::run(
    std::vector<LabeledConfig> configs) {
  std::vector<const ScenarioConfig*> ptrs;
  std::vector<const std::string*> labels;
  ptrs.reserve(configs.size());
  labels.reserve(configs.size());
  for (const LabeledConfig& lc : configs) {
    ptrs.push_back(&lc.config);
    labels.push_back(&lc.label);
  }
  std::vector<ScenarioResult> results = run_indexed(ptrs, labels);

  std::vector<LabeledResult> out;
  out.reserve(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    out.push_back(
        LabeledResult{std::move(configs[i].label), std::move(results[i])});
  }
  return out;
}

std::vector<ScenarioResult> SweepRunner::run_indexed(
    const std::vector<const ScenarioConfig*>& configs,
    const std::vector<const std::string*>& labels) {
  const std::size_t n = configs.size();
  std::vector<ScenarioResult> results(n);
  stats_ = SweepStats{};
  stats_.jobs_used = jobs_;
  stats_.scenarios = n;
  stats_.scenario_wall_seconds.assign(n, 0.0);
  if (n == 0) return results;

  const auto sweep_start = Clock::now();
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> finished{0};
  std::mutex log_mutex;

  auto worker = [&]() {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      const auto start = Clock::now();
      results[i] = run_scenario(*configs[i]);
      stats_.scenario_wall_seconds[i] = seconds_since(start);
      const std::size_t done =
          finished.fetch_add(1, std::memory_order_relaxed) + 1;
      if (options_.progress) {
        const std::lock_guard lock(log_mutex);
        std::fprintf(
            stderr,
            "  [%3zu/%zu] %-42s delivery=%6.2f%%  gossip/disp=%8.1f  "
            "(%.2fs wall)\n",
            done, n, i < labels.size() ? labels[i]->c_str() : "",
            100.0 * results[i].delivery_rate,
            results[i].gossip_msgs_per_dispatcher,
            stats_.scenario_wall_seconds[i]);
      }
    }
  };

  const unsigned pool = static_cast<unsigned>(
      std::min<std::size_t>(jobs_, n));
  if (pool <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(pool);
    for (unsigned t = 0; t < pool; ++t) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
  }

  stats_.wall_seconds = seconds_since(sweep_start);
  for (const ScenarioResult& r : results) {
    stats_.sim_events_executed += r.sim_events_executed;
  }
  return results;
}

}  // namespace epicast
