// Hot-path phase attribution benchmark: runs one paper-default scenario per
// recovery family with the HotpathProfiler's nanosecond timing enabled and
// prints where scenario wall time actually goes — dispatch, forward,
// gossip rounds, gossip handling, cache ops, transport — plus the message
// pool's recycling counters. This is the attribution companion to
// bench_sweep_throughput: that one says how fast, this one says why.
// Emits BENCH_hotpath.json (override with EPICAST_BENCH_JSON / --json=PATH).
//
// Phase ns are INCLUSIVE of nested phases (a dispatch contains the forwards
// and cache ops it triggers), so columns do not sum to wall time.
#include "bench_common.hpp"

#include <cinttypes>

namespace {

using namespace epicast;
using namespace epicast::bench;

constexpr HotPhase kPhases[] = {
    HotPhase::Dispatch,         HotPhase::Forward,
    HotPhase::Control,          HotPhase::GossipRound,
    HotPhase::GossipHandle,     HotPhase::CacheOp,
    HotPhase::TransportOverlay, HotPhase::TransportDirect,
};

struct Run {
  std::string label;
  ScenarioResult result;
};

Run run_one(Algorithm a) {
  ScenarioConfig cfg = base_config(a, 4.0);
  cfg.profile_hotpath = true;
  Run run;
  run.label = algo_label(a);
  std::fprintf(stderr, "running %s...\n", run.label.c_str());
  run.result = run_scenario(cfg);
  return run;
}

void print_run(const Run& run) {
  const ScenarioResult& r = run.result;
  std::printf("\n%s: %.2fs wall, %" PRIu64 " sim events (%.0f events/sec)\n",
              run.label.c_str(), r.wall_seconds, r.sim_events_executed,
              r.wall_seconds > 0.0
                  ? static_cast<double>(r.sim_events_executed) / r.wall_seconds
                  : 0.0);
  std::printf("  %-18s %12s %12s %10s %7s\n", "phase", "ops", "total_ms",
              "ns/op", "% wall");
  for (HotPhase p : kPhases) {
    const auto& t = r.hotpath[p];
    const double ms = static_cast<double>(t.ns) / 1e6;
    std::printf("  %-18s %12" PRIu64 " %12.2f %10.0f %6.1f%%\n", to_string(p),
                t.ops, ms,
                t.ops > 0 ? static_cast<double>(t.ns) /
                                static_cast<double>(t.ops)
                          : 0.0,
                r.wall_seconds > 0.0 ? 100.0 * ms / 1e3 / r.wall_seconds
                                     : 0.0);
  }
  std::printf(
      "  pool: %" PRIu64 " allocs, %" PRIu64 " reused (%.1f%%), %" PRIu64
      " oversize, %" PRIu64 " slab KiB, %" PRIu64 " live at end\n",
      r.pool.allocations, r.pool.reuses,
      r.pool.allocations > 0
          ? 100.0 * static_cast<double>(r.pool.reuses) /
                static_cast<double>(r.pool.allocations)
          : 0.0,
      r.pool.oversize, r.pool.slab_bytes / 1024, r.pool.live());
}

void write_json(const std::string& path, const std::vector<Run>& runs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"scenarios\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ScenarioResult& r = runs[i].result;
    std::fprintf(f,
                 "    {\n"
                 "      \"algorithm\": \"%s\",\n"
                 "      \"wall_seconds\": %.6f,\n"
                 "      \"sim_events_executed\": %" PRIu64
                 ",\n"
                 "      \"events_per_sec\": %.0f,\n"
                 "      \"phases\": {\n",
                 runs[i].label.c_str(), r.wall_seconds, r.sim_events_executed,
                 r.wall_seconds > 0.0
                     ? static_cast<double>(r.sim_events_executed) /
                           r.wall_seconds
                     : 0.0);
    for (std::size_t p = 0; p < std::size(kPhases); ++p) {
      const auto& t = r.hotpath[kPhases[p]];
      std::fprintf(f, "        \"%s\": {\"ops\": %" PRIu64 ", \"ns\": %" PRIu64
                      "}%s\n",
                   to_string(kPhases[p]), t.ops, t.ns,
                   p + 1 < std::size(kPhases) ? "," : "");
    }
    std::fprintf(f,
                 "      },\n"
                 "      \"pool\": {\"allocations\": %" PRIu64
                 ", \"reuses\": %" PRIu64 ", \"oversize\": %" PRIu64
                 ", \"slab_bytes\": %" PRIu64 "}\n    }%s\n",
                 r.pool.allocations, r.pool.reuses, r.pool.oversize,
                 r.pool.slab_bytes, i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n"
               "  \"pool_mode\": \"%s\",\n"
               "  \"fast_mode\": %s\n"
               "}\n",
               env::settings().pool == MessagePool::Mode::Pooling
                   ? "pooling"
                   : "pass-through",
               fast_mode() ? "true" : "false");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  epicast::bench::init(argc, argv);

  print_header("hot-path profile", "per-phase time attribution + pool stats");
  std::printf("pool mode: %s (EPICAST_POOL overrides)\n",
              env::settings().pool == MessagePool::Mode::Pooling
                  ? "pooling"
                  : "pass-through");

  std::vector<Run> runs;
  // One scenario per protocol family: tree-steered push, the best pull
  // (combined), and random gossip — together they exercise every phase.
  for (Algorithm a :
       {Algorithm::Push, Algorithm::CombinedPull, Algorithm::RandomPull}) {
    runs.push_back(run_one(a));
    print_run(runs.back());
  }

  const std::string json_path = BenchEnv::get().json_path.empty()
                                    ? std::string("BENCH_hotpath.json")
                                    : BenchEnv::get().json_path;
  write_json(json_path, runs);

  print_note(
      "phase ns are inclusive of nested phases; gossip_round + dispatch + "
      "transport should account for the bulk of wall time, and the pool's "
      "reuse fraction should be high once the freelists warm up.");
  return 0;
}
