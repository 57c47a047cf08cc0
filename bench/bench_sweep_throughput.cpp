// Sweep-throughput benchmark: tracks the quantities this library's
// performance work optimizes — raw single-thread scheduler throughput
// (events/sec under schedule/cancel churn), whole-sweep wall time (serial
// vs parallel on the SweepRunner, Fig. 3a's 12-scenario sweep), the
// serial events/sec of one scale scenario (N = 10³ random-regular overlay,
// combined pull), where per-node state and the timer heap dominate instead
// of the paper tree's dispatch and gossip, and the set-up CPU time of one
// N = 3000 Barabási–Albert scale scenario (overlay, all-pairs distance,
// routing-oracle bootstrap). CI gates the host-scaled medians of both
// serial events/sec figures and of the set-up time against the committed
// baseline.
//
// The gated figures are CPU-time figures scaled to the host's speed: each
// run of a gated workload is bracketed by two runs of a fixed-work kernel
// that runs no epicast code, and is reported as it would read on a host
// where that kernel takes kProbeNominalSeconds. On a shared host a core's
// speed swings by a third within seconds, and an unscaled figure with it;
// a change to epicast moves the figure and not the kernel. Each gated
// workload runs kRuns times and the report carries the medians (raw and
// scaled) and every run's scaled figure.
// Emits a machine-readable JSON report (default BENCH_sweep.json, override
// with EPICAST_BENCH_JSON / --json=PATH) so the perf trajectory is
// comparable across commits.
#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <ctime>
#include <string>
#include <vector>

namespace {

using namespace epicast;
using namespace epicast::bench;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// -- host-speed probe ---------------------------------------------------------

/// CPU seconds the probe kernel typically takes on the 4-vCPU host the
/// committed BENCH_sweep.json came from. Only ratios of scaled figures are
/// gated, so the value merely sets the scale they are reported in.
constexpr double kProbeNominalSeconds = 0.2;

/// Written by the probe so the compiler keeps its loops.
volatile std::uint64_t probe_sink = 0;

/// CPU seconds of a fixed kernel that runs no epicast code: dependent
/// random updates over a 4 MiB table (the memory side of a simulation)
/// and a chain of integer hashing (its arithmetic side).
double probe_cpu_seconds() {
  static std::vector<std::uint64_t> table(std::size_t{1} << 19);
  const double c0 = process_cpu_seconds();
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t acc = 0;
  for (int i = 0; i < 1'200'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint64_t& slot = table[(x ^ acc) & (table.size() - 1)];
    slot += x;
    acc += slot;
  }
  for (int i = 0; i < 15'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += (x * 0x9E3779B97F4A7C15ULL) >> (x & 31);
  }
  probe_sink = acc;
  return process_cpu_seconds() - c0;
}

/// Runs of each gated workload; the gate reads their median.
constexpr int kRuns = 3;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// One gated workload timed kRuns times.
struct Timed {
  std::vector<double> wall_s;  ///< per run
  std::vector<double> cpu_s;   ///< per run
  /// Per run: CPU seconds divided by the host slowdown the probes on
  /// either side of the run measured (nominal: kProbeNominalSeconds).
  std::vector<double> scaled_cpu_s;
  std::vector<double> probe_s;  ///< kRuns + 1 probes, runs in between
};

/// Runs `fn(run)` kRuns times with a probe before the first run and after
/// each; adjacent runs share the probe between them.
template <typename Fn>
Timed timed_runs(Fn&& fn) {
  Timed t;
  t.probe_s.push_back(probe_cpu_seconds());
  for (int i = 0; i < kRuns; ++i) {
    const auto w0 = Clock::now();
    const double c0 = process_cpu_seconds();
    fn(i);
    t.cpu_s.push_back(process_cpu_seconds() - c0);
    t.wall_s.push_back(seconds_since(w0));
    t.probe_s.push_back(probe_cpu_seconds());
    const double slowdown =
        (t.probe_s[i] + t.probe_s[i + 1]) / 2.0 / kProbeNominalSeconds;
    t.scaled_cpu_s.push_back(t.cpu_s.back() / slowdown);
  }
  return t;
}

/// `v` as a JSON array, each value printed with `fmt`.
std::string json_array(const std::vector<double>& v, const char* fmt) {
  std::string out = "[";
  char buf[32];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, fmt, v[i]);
    out += (i > 0 ? ", " : "") + std::string(buf);
  }
  return out + "]";
}

/// Events per second of each of `seconds`, for a workload that executes
/// `events` every run.
std::vector<double> rates(std::uint64_t events,
                          const std::vector<double>& seconds) {
  std::vector<double> out;
  for (const double s : seconds) out.push_back(static_cast<double>(events) / s);
  return out;
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

/// figures::scale combined pull on Barabási–Albert at N = 3000 with every
/// window cut to the minimum validate() accepts: what remains is
/// construction, overlay generation, the mean-distance pass and the
/// routing-oracle bootstrap. Independent of fast mode. Timed in CPU time,
/// not wall: on a shared host wall time also carries steal.
ScenarioConfig scale_setup_scenario() {
  ScenarioConfig cfg = figures::scale(
      Algorithm::CombinedPull, OverlayKind::BarabasiAlbert, kSetupNodes, 1.0);
  cfg.warmup = Duration::zero();
  cfg.measure = Duration::nanos(1);
  cfg.recovery_horizon = Duration::nanos(1);
  return cfg;
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

  std::fprintf(stderr, "serial sweep (%zu scenarios, jobs=1, %d runs)...\n",
               configs.size(), kRuns);
  SweepRunner serial_runner(SweepOptions{1, /*progress=*/false});
  std::vector<std::vector<LabeledResult>> serial(kRuns);
  const Timed serial_t =
      timed_runs([&](int run) { serial[run] = serial_runner.run(configs); });
  const std::uint64_t sweep_events =
      serial_runner.last_stats().sim_events_executed;
  const double serial_wall = median(serial_t.wall_s);
  const std::vector<double> serial_scaled_runs =
      rates(sweep_events, serial_t.scaled_cpu_s);

  std::fprintf(stderr, "parallel sweep (%zu scenarios, jobs=%u)...\n",
               configs.size(), jobs);
  SweepRunner parallel_runner(SweepOptions{jobs, /*progress=*/false});
  const auto parallel = parallel_runner.run(configs);
  const SweepStats parallel_stats = parallel_runner.last_stats();

  std::fprintf(stderr,
               "scale scenario (N=1000 random-regular, serial, %d runs)...\n",
               kRuns);
  const ScenarioConfig scale_cfg = scale_scenario();
  ScenarioResult scale;
  const Timed scale_t = timed_runs([&](int) { scale = run_scenario(scale_cfg); });
  const double scale_wall = median(scale_t.wall_s);
  const std::vector<double> scale_scaled_runs =
      rates(scale.sim_events_executed, scale_t.scaled_cpu_s);

  std::fprintf(stderr, "scale set-up (N=%u Barabasi-Albert, %d runs)...\n",
               kSetupNodes, kRuns);
  const ScenarioConfig setup_cfg = scale_setup_scenario();
  const Timed setup_t =
      timed_runs([&](int) { (void)run_scenario(setup_cfg); });

  bool identical = results_identical(serial[0], parallel);
  for (int run = 1; run < kRuns; ++run) {
    identical = identical && results_identical(serial[0], serial[run]);
  }
  const double speedup = parallel_stats.wall_seconds > 0.0
                             ? serial_wall / parallel_stats.wall_seconds
                             : 0.0;

  std::printf(
      "\nsweep (%zu Fig. 3a scenarios; serial: median of %d runs):\n"
      "  serial   (jobs=1):  %7.2fs wall  %8.0f sim events/sec\n"
      "  parallel (jobs=%u): %7.2fs wall  %8.0f sim events/sec\n"
      "  speedup:            %.2fx\n"
      "  serial/parallel results bit-identical: %s\n"
      "  serial, host-scaled: %.0f sim events per CPU second\n",
      configs.size(), kRuns, serial_wall,
      static_cast<double>(sweep_events) / serial_wall, jobs,
      parallel_stats.wall_seconds, parallel_stats.events_per_second(),
      speedup, identical ? "yes" : "NO — DETERMINISM BUG",
      median(serial_scaled_runs));
  std::printf(
      "\nscale scenario (N=%u random-regular, combined pull, serial; median "
      "of %d runs):\n"
      "  %" PRIu64 " sim events in %.2fs  ->  %.0f sim events/sec\n"
      "  host-scaled: %.0f sim events per CPU second\n",
      scale_cfg.nodes, kRuns, scale.sim_events_executed, scale_wall,
      static_cast<double>(scale.sim_events_executed) / scale_wall,
      median(scale_scaled_runs));
  std::printf(
      "\nscale set-up (N=%u Barabasi-Albert, combined pull, windows cut; "
      "median of %d runs):\n"
      "  %.3fs CPU; host-scaled %.3fs\n",
      kSetupNodes, kRuns, median(setup_t.cpu_s),
      median(setup_t.scaled_cpu_s));

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
        "    \"runs\": %d,\n"
        "    \"serial_wall_seconds\": %.6f,\n"
        "    \"parallel_wall_seconds\": %.6f,\n"
        "    \"speedup\": %.4f,\n"
        "    \"scenarios_per_sec\": %.4f,\n"
        "    \"sim_events_executed\": %" PRIu64 ",\n"
        "    \"serial_events_per_sec\": %.0f,\n"
        "    \"events_per_sec\": %.0f,\n"
        "    \"results_identical\": %s,\n"
        "    \"serial_cpu_seconds\": %.6f,\n"
        "    \"probe_seconds\": %s,\n"
        "    \"scaled_runs\": %s,\n"
        "    \"scaled_serial_events_per_sec\": %.0f\n"
        "  },\n"
        "  \"scale_serial\": {\n"
        "    \"nodes\": %u,\n"
        "    \"runs\": %d,\n"
        "    \"sim_events_executed\": %" PRIu64 ",\n"
        "    \"wall_seconds\": %.6f,\n"
        "    \"events_per_sec\": %.0f,\n"
        "    \"cpu_seconds\": %.6f,\n"
        "    \"probe_seconds\": %s,\n"
        "    \"scaled_runs\": %s,\n"
        "    \"scaled_events_per_sec\": %.0f\n"
        "  },\n"
        "  \"scale_setup\": {\n"
        "    \"nodes\": %u,\n"
        "    \"runs\": %d,\n"
        "    \"cpu_seconds\": %.6f,\n"
        "    \"probe_seconds\": %s,\n"
        "    \"scaled_runs\": %s,\n"
        "    \"scaled_cpu_seconds\": %.6f\n"
        "  },\n"
        "  \"probe_nominal_seconds\": %.3f,\n"
        "  \"fast_mode\": %s\n"
        "}\n",
        micro.executed, micro.wall_seconds, micro.events_per_second(),
        configs.size(), jobs_requested, jobs,
        SweepRunner::available_parallelism(), kRuns, serial_wall,
        parallel_stats.wall_seconds, speedup,
        parallel_stats.scenarios_per_second(),
        parallel_stats.sim_events_executed,
        static_cast<double>(sweep_events) / serial_wall,
        parallel_stats.events_per_second(), identical ? "true" : "false",
        median(serial_t.cpu_s), json_array(serial_t.probe_s, "%.6f").c_str(),
        json_array(serial_scaled_runs, "%.0f").c_str(),
        median(serial_scaled_runs), scale_cfg.nodes, kRuns,
        scale.sim_events_executed, scale_wall,
        static_cast<double>(scale.sim_events_executed) / scale_wall,
        median(scale_t.cpu_s), json_array(scale_t.probe_s, "%.6f").c_str(),
        json_array(scale_scaled_runs, "%.0f").c_str(),
        median(scale_scaled_runs), kSetupNodes, kRuns, median(setup_t.cpu_s),
        json_array(setup_t.probe_s, "%.6f").c_str(),
        json_array(setup_t.scaled_cpu_s, "%.6f").c_str(),
        median(setup_t.scaled_cpu_s), kProbeNominalSeconds,
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
