// Sweep-throughput benchmark: tracks the quantities this library's
// performance work optimizes — raw single-thread scheduler throughput
// (events/sec under schedule/cancel churn), whole-sweep wall time (serial
// vs parallel on the SweepRunner, Fig. 3a's 12-scenario sweep), the
// serial events/sec of one scale scenario (N = 10³ random-regular overlay,
// combined pull), where per-node state and the timer heap dominate instead
// of the paper tree's dispatch and gossip, and the set-up CPU time of one
// N = 3000 Barabási–Albert scale scenario (overlay, all-pairs distance,
// routing-oracle bootstrap). CI gates both serial events/sec figures and
// the set-up time against the committed baseline.
// Emits a machine-readable JSON report (default BENCH_sweep.json, override
// with EPICAST_BENCH_JSON / --json=PATH) so the perf trajectory is
// comparable across commits.
#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <ctime>
#include <vector>

namespace {

using namespace epicast;
using namespace epicast::bench;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// -- micro: scheduler hot path ------------------------------------------------

struct MicroResult {
  std::uint64_t scheduled = 0;
  std::uint64_t executed = 0;
  double wall_seconds = 0.0;

  [[nodiscard]] double events_per_second() const {
    return wall_seconds > 0.0
               ? static_cast<double>(executed) / wall_seconds
               : 0.0;
  }
};

/// Schedules batches of events over a small time range with ~25% cancelled
/// before firing — the gossip-round profile (timers armed, then re-armed or
/// cancelled) that dominates scheduler traffic in real scenarios.
MicroResult scheduler_micro() {
  const int batches = fast_mode() ? 50 : 300;
  const int per_batch = 10000;
  MicroResult out;
  Rng rng(7);

  const auto start = Clock::now();
  for (int b = 0; b < batches; ++b) {
    Scheduler s;
    std::uint64_t sink = 0;
    std::vector<EventHandle> handles;
    handles.reserve(per_batch);
    for (int i = 0; i < per_batch; ++i) {
      handles.push_back(
          s.schedule_at(SimTime::seconds(0.001 * rng.next_below(97)),
                        [&sink] { ++sink; }));
    }
    for (int i = 0; i < per_batch; i += 4) handles[i].cancel();
    s.run();
    out.scheduled += per_batch;
    out.executed += s.executed();
    EPICAST_ASSERT(sink == s.executed());
  }
  out.wall_seconds = seconds_since(start);
  return out;
}

// -- macro: Fig. 3a sweep, serial vs parallel --------------------------------

std::vector<LabeledConfig> fig3a_sweep() {
  std::vector<LabeledConfig> configs;
  for (const double eps : {0.05, 0.1}) {
    for (Algorithm a : all_algorithms()) {
      ScenarioConfig cfg = base_config(a, 4.0);
      cfg.link_error_rate = eps;
      cfg.bucket_width = Duration::millis(200);
      configs.push_back({std::string("eps=") + std::to_string(eps) + " " +
                             algo_label(a),
                         cfg});
    }
  }
  return configs;
}

// -- macro: one scale scenario, serial ----------------------------------------

ScenarioConfig scale_scenario() {
  return figures::scale(Algorithm::CombinedPull, OverlayKind::RandomRegular,
                        1000, measure_s(4.0));
}

// -- macro: one scale scenario's set-up, serial -------------------------------

constexpr std::uint32_t kSetupNodes = 3000;
constexpr int kSetupRuns = 3;

/// figures::scale combined pull on Barabási–Albert at N = 3000 with every
/// window cut to the minimum validate() accepts: what remains is
/// construction, overlay generation, the mean-distance pass and the
/// routing-oracle bootstrap. Independent of fast mode.
ScenarioConfig scale_setup_scenario() {
  ScenarioConfig cfg = figures::scale(
      Algorithm::CombinedPull, OverlayKind::BarabasiAlbert, kSetupNodes, 1.0);
  cfg.warmup = Duration::zero();
  cfg.measure = Duration::nanos(1);
  cfg.recovery_horizon = Duration::nanos(1);
  return cfg;
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Median CPU seconds of kSetupRuns set-up-only runs. CPU time, not wall:
/// on a shared host wall time also carries steal.
double scale_setup_cpu_seconds() {
  const ScenarioConfig cfg = scale_setup_scenario();
  std::vector<double> cpu;
  for (int i = 0; i < kSetupRuns; ++i) {
    const double t0 = process_cpu_seconds();
    (void)run_scenario(cfg);
    cpu.push_back(process_cpu_seconds() - t0);
  }
  std::sort(cpu.begin(), cpu.end());
  return cpu[cpu.size() / 2];
}

bool results_identical(const std::vector<LabeledResult>& a,
                       const std::vector<LabeledResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const ScenarioResult& x = a[i].result;
    const ScenarioResult& y = b[i].result;
    if (x.events_published != y.events_published ||
        x.expected_pairs != y.expected_pairs ||
        x.delivered_pairs != y.delivered_pairs ||
        x.recovered_pairs != y.recovered_pairs ||
        x.sim_events_executed != y.sim_events_executed ||
        x.traffic.gossip_sends() != y.traffic.gossip_sends() ||
        x.traffic.event_sends() != y.traffic.event_sends() ||
        x.delivery_rate != y.delivery_rate ||
        x.delivery_series.size() != y.delivery_series.size()) {
      return false;
    }
    for (std::size_t p = 0; p < x.delivery_series.size(); ++p) {
      if (x.delivery_series.points()[p].y != y.delivery_series.points()[p].y)
        return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  epicast::bench::init(argc, argv);

  print_header("sweep throughput", "scheduler events/sec + sweep speedup");

  std::fprintf(stderr, "scheduler micro (single thread)...\n");
  const MicroResult micro = scheduler_micro();
  std::printf(
      "\nscheduler: %" PRIu64 " events executed (%" PRIu64
      " scheduled, 25%% cancelled) in %.3fs  ->  %.2fM events/sec\n",
      micro.executed, micro.scheduled, micro.wall_seconds,
      micro.events_per_second() / 1e6);

  const std::vector<LabeledConfig> configs = fig3a_sweep();
  const unsigned jobs_requested = BenchEnv::get().jobs;
  const unsigned jobs = SweepRunner::resolve_jobs(jobs_requested);

  std::fprintf(stderr, "serial sweep (%zu scenarios, jobs=1)...\n",
               configs.size());
  SweepRunner serial_runner(SweepOptions{1, /*progress=*/false});
  const auto serial = serial_runner.run(configs);
  const SweepStats serial_stats = serial_runner.last_stats();

  std::fprintf(stderr, "parallel sweep (%zu scenarios, jobs=%u)...\n",
               configs.size(), jobs);
  SweepRunner parallel_runner(SweepOptions{jobs, /*progress=*/false});
  const auto parallel = parallel_runner.run(configs);
  const SweepStats parallel_stats = parallel_runner.last_stats();

  std::fprintf(stderr, "scale scenario (N=1000 random-regular, serial)...\n");
  const ScenarioConfig scale_cfg = scale_scenario();
  const ScenarioResult scale = run_scenario(scale_cfg);
  const double scale_events_per_sec =
      scale.wall_seconds > 0.0
          ? static_cast<double>(scale.sim_events_executed) /
                scale.wall_seconds
          : 0.0;

  std::fprintf(stderr, "scale set-up (N=%u Barabasi-Albert, %d runs)...\n",
               kSetupNodes, kSetupRuns);
  const double setup_cpu = scale_setup_cpu_seconds();

  const bool identical = results_identical(serial, parallel);
  const double speedup =
      parallel_stats.wall_seconds > 0.0
          ? serial_stats.wall_seconds / parallel_stats.wall_seconds
          : 0.0;

  std::printf(
      "\nsweep (%zu Fig. 3a scenarios):\n"
      "  serial   (jobs=1):  %7.2fs wall  %8.0f sim events/sec\n"
      "  parallel (jobs=%u): %7.2fs wall  %8.0f sim events/sec\n"
      "  speedup:            %.2fx\n"
      "  serial/parallel results bit-identical: %s\n",
      configs.size(), serial_stats.wall_seconds,
      serial_stats.events_per_second(), jobs, parallel_stats.wall_seconds,
      parallel_stats.events_per_second(), speedup,
      identical ? "yes" : "NO — DETERMINISM BUG");
  std::printf(
      "\nscale scenario (N=%u random-regular, combined pull, serial):\n"
      "  %" PRIu64 " sim events in %.2fs  ->  %.0f sim events/sec\n",
      scale_cfg.nodes, scale.sim_events_executed, scale.wall_seconds,
      scale_events_per_sec);
  std::printf(
      "\nscale set-up (N=%u Barabasi-Albert, combined pull, windows cut):\n"
      "  median of %d runs: %.3fs CPU\n",
      kSetupNodes, kSetupRuns, setup_cpu);

  const std::string json_path = BenchEnv::get().json_path.empty()
                                    ? std::string("BENCH_sweep.json")
                                    : BenchEnv::get().json_path;
  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(
        f,
        "{\n"
        "  \"scheduler_micro\": {\n"
        "    \"events_executed\": %" PRIu64 ",\n"
        "    \"wall_seconds\": %.6f,\n"
        "    \"events_per_sec\": %.0f\n"
        "  },\n"
        "  \"sweep\": {\n"
        "    \"scenarios\": %zu,\n"
        "    \"jobs_requested\": %u,\n"
        "    \"jobs\": %u,\n"
        "    \"available_parallelism\": %u,\n"
        "    \"serial_wall_seconds\": %.6f,\n"
        "    \"parallel_wall_seconds\": %.6f,\n"
        "    \"speedup\": %.4f,\n"
        "    \"scenarios_per_sec\": %.4f,\n"
        "    \"sim_events_executed\": %" PRIu64 ",\n"
        "    \"serial_events_per_sec\": %.0f,\n"
        "    \"events_per_sec\": %.0f,\n"
        "    \"results_identical\": %s\n"
        "  },\n"
        "  \"scale_serial\": {\n"
        "    \"nodes\": %u,\n"
        "    \"sim_events_executed\": %" PRIu64 ",\n"
        "    \"wall_seconds\": %.6f,\n"
        "    \"events_per_sec\": %.0f\n"
        "  },\n"
        "  \"scale_setup\": {\n"
        "    \"nodes\": %u,\n"
        "    \"runs\": %d,\n"
        "    \"cpu_seconds\": %.6f\n"
        "  },\n"
        "  \"fast_mode\": %s\n"
        "}\n",
        micro.executed, micro.wall_seconds, micro.events_per_second(),
        configs.size(), jobs_requested, jobs,
        SweepRunner::available_parallelism(), serial_stats.wall_seconds,
        parallel_stats.wall_seconds, speedup,
        parallel_stats.scenarios_per_second(),
        parallel_stats.sim_events_executed, serial_stats.events_per_second(),
        parallel_stats.events_per_second(), identical ? "true" : "false",
        scale_cfg.nodes, scale.sim_events_executed, scale.wall_seconds,
        scale_events_per_sec, kSetupNodes, kSetupRuns, setup_cpu,
        fast_mode() ? "true" : "false");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }

  print_note(
      "speedup should approach min(jobs, scenarios) on otherwise idle "
      "hardware; identical results certify the determinism contract under "
      "parallel execution.");
  return identical ? 0 : 2;
}
