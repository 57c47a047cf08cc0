// Microbenchmarks (google-benchmark) of the hot paths that bound how large
// a scenario the simulator can run: the event-queue, RNG, matching,
// subscription-table lookups, the event cache, and tree BFS.
#include <benchmark/benchmark.h>

#include "epicast/epicast.hpp"

namespace {

using namespace epicast;

void BM_SchedulerScheduleAndRun(benchmark::State& state) {
  for (auto _ : state) {
    Scheduler s;
    int sink = 0;
    for (int i = 0; i < state.range(0); ++i) {
      s.schedule_at(SimTime::seconds(0.001 * (i % 97)), [&sink] { ++sink; });
    }
    s.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedulerScheduleAndRun)->Arg(1000)->Arg(10000);

void BM_SchedulerCancelChurn(benchmark::State& state) {
  // Gossip-round profile: timers armed, a quarter cancelled before firing.
  std::vector<EventHandle> handles;
  for (auto _ : state) {
    Scheduler s;
    int sink = 0;
    handles.clear();
    for (int i = 0; i < state.range(0); ++i) {
      handles.push_back(
          s.schedule_at(SimTime::seconds(0.001 * (i % 97)), [&sink] { ++sink; }));
    }
    for (int i = 0; i < state.range(0); i += 4) handles[i].cancel();
    s.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedulerCancelChurn)->Arg(10000);

void BM_RngNextBelow(benchmark::State& state) {
  Rng rng(1);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sink += rng.next_below(70);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNextBelow);

void BM_PatternSampleDistinct(benchmark::State& state) {
  PatternUniverse universe(70);
  Rng rng(2);
  for (auto _ : state) {
    auto sample =
        universe.sample_distinct(static_cast<std::uint32_t>(state.range(0)),
                                 rng);
    benchmark::DoNotOptimize(sample);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PatternSampleDistinct)->Arg(3)->Arg(30);

void BM_SubscriptionTableRouteTargets(benchmark::State& state) {
  SubscriptionTable table;
  Rng rng(3);
  for (std::uint32_t p = 0; p < 70; ++p) {
    for (std::uint32_t h = 0; h < 4; ++h) {
      if (rng.chance(0.5)) table.add_route(Pattern{p}, NodeId{h});
    }
  }
  auto event = std::make_shared<EventData>(
      EventId{NodeId{9}, 1},
      std::vector<PatternSeq>{{Pattern{3}, SeqNo{1}},
                              {Pattern{31}, SeqNo{1}},
                              {Pattern{65}, SeqNo{1}}},
      200, SimTime::zero());
  for (auto _ : state) {
    auto targets = table.route_targets(*event, NodeId{0});
    benchmark::DoNotOptimize(targets);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SubscriptionTableRouteTargets);

void BM_SubscriptionTableRouteTargetsInto(benchmark::State& state) {
  SubscriptionTable table;
  Rng rng(3);
  for (std::uint32_t p = 0; p < 70; ++p) {
    for (std::uint32_t h = 0; h < 4; ++h) {
      if (rng.chance(0.5)) table.add_route(Pattern{p}, NodeId{h});
    }
  }
  auto event = std::make_shared<EventData>(
      EventId{NodeId{9}, 1},
      std::vector<PatternSeq>{{Pattern{3}, SeqNo{1}},
                              {Pattern{31}, SeqNo{1}},
                              {Pattern{65}, SeqNo{1}}},
      200, SimTime::zero());
  std::vector<NodeId> scratch;
  for (auto _ : state) {
    table.route_targets_into(*event, NodeId{0}, scratch);
    benchmark::DoNotOptimize(scratch);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SubscriptionTableRouteTargetsInto);

// Both cache benches measure a push node's cache, the one that keeps the
// per-pattern digest index.
void BM_EventCacheInsertEvict(benchmark::State& state) {
  EventRegistry registry;
  EventCache cache(1500, registry);
  cache.keep_pattern_index();
  std::uint64_t seq = 0;
  for (auto _ : state) {
    auto e = std::make_shared<EventData>(
        EventId{NodeId{0}, seq},
        std::vector<PatternSeq>{
            {Pattern{static_cast<std::uint32_t>(seq % 70)}, SeqNo{seq + 1}}},
        200, SimTime::zero());
    cache.insert(e);
    ++seq;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventCacheInsertEvict);

void BM_EventCacheDigest(benchmark::State& state) {
  EventRegistry registry;
  EventCache cache(1500, registry);
  cache.keep_pattern_index();
  for (std::uint64_t i = 0; i < 1500; ++i) {
    cache.insert(std::make_shared<EventData>(
        EventId{NodeId{0}, i},
        std::vector<PatternSeq>{
            {Pattern{static_cast<std::uint32_t>(i % 70)}, SeqNo{i + 1}}},
        200, SimTime::zero()));
  }
  std::uint32_t p = 0;
  for (auto _ : state) {
    auto ids = cache.ids_matching(Pattern{p++ % 70});
    benchmark::DoNotOptimize(ids);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventCacheDigest);

void BM_TopologyPath(benchmark::State& state) {
  Rng rng(6);
  Topology topo = Topology::random_tree(100, 4, rng);
  std::uint32_t i = 0;
  for (auto _ : state) {
    auto path = topo.path(NodeId{i % 100}, NodeId{(i * 37 + 11) % 100});
    benchmark::DoNotOptimize(path);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TopologyPath);

void BM_WholeScenarioSmall(benchmark::State& state) {
  for (auto _ : state) {
    ScenarioConfig cfg = ScenarioConfig::paper_defaults(Algorithm::CombinedPull);
    cfg.nodes = 20;
    cfg.warmup = Duration::seconds(0.2);
    cfg.measure = Duration::seconds(0.5);
    cfg.recovery_horizon = Duration::seconds(0.5);
    const ScenarioResult r = run_scenario(cfg);
    benchmark::DoNotOptimize(r.delivery_rate);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(r.sim_events_executed));
  }
}
BENCHMARK(BM_WholeScenarioSmall)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
