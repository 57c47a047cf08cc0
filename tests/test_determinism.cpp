// Determinism property tests: a scenario is a pure function of
// (config, seed) for every algorithm and for the churn scenario; unrelated
// configuration flips do not leak randomness between components.
#include <gtest/gtest.h>

#include "epicast/common/rng.hpp"
#include "epicast/scenario/runner.hpp"
#include "epicast/sim/scheduler.hpp"

namespace epicast {
namespace {

ScenarioConfig quick(Algorithm a, std::uint64_t seed) {
  ScenarioConfig cfg = ScenarioConfig::paper_defaults(a);
  cfg.nodes = 20;
  cfg.seed = seed;
  cfg.warmup = Duration::seconds(0.5);
  cfg.measure = Duration::seconds(1.0);
  cfg.recovery_horizon = Duration::seconds(1.0);
  return cfg;
}

void expect_identical(const ScenarioResult& a, const ScenarioResult& b) {
  EXPECT_EQ(a.events_published, b.events_published);
  EXPECT_EQ(a.expected_pairs, b.expected_pairs);
  EXPECT_EQ(a.delivered_pairs, b.delivered_pairs);
  EXPECT_EQ(a.recovered_pairs, b.recovered_pairs);
  EXPECT_EQ(a.sim_events_executed, b.sim_events_executed);
  EXPECT_EQ(a.traffic.gossip_sends(), b.traffic.gossip_sends());
  EXPECT_EQ(a.traffic.event_sends(), b.traffic.event_sends());
  EXPECT_DOUBLE_EQ(a.delivery_rate, b.delivery_rate);
  ASSERT_EQ(a.delivery_series.size(), b.delivery_series.size());
  for (std::size_t i = 0; i < a.delivery_series.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.delivery_series.points()[i].y,
                     b.delivery_series.points()[i].y);
  }
}

class AlgorithmDeterminism : public ::testing::TestWithParam<Algorithm> {};

TEST_P(AlgorithmDeterminism, RerunIsBitIdentical) {
  const ScenarioConfig cfg = quick(GetParam(), 404);
  expect_identical(run_scenario(cfg), run_scenario(cfg));
}

INSTANTIATE_TEST_SUITE_P(Algorithms, AlgorithmDeterminism,
                         ::testing::Values(Algorithm::NoRecovery,
                                           Algorithm::Push,
                                           Algorithm::SubscriberPull,
                                           Algorithm::PublisherPull,
                                           Algorithm::CombinedPull,
                                           Algorithm::RandomPull));

TEST(Determinism, ChurnScenarioIsReproducible) {
  ScenarioConfig cfg = quick(Algorithm::Push, 11);
  cfg.link_error_rate = 0.0;
  cfg.reconfiguration_interval = Duration::millis(100);
  const ScenarioResult a = run_scenario(cfg);
  const ScenarioResult b = run_scenario(cfg);
  expect_identical(a, b);
  EXPECT_EQ(a.reconfig_breaks, b.reconfig_breaks);
  EXPECT_EQ(a.drops_no_link, b.drops_no_link);
}

TEST(Determinism, SeedChangesEverything) {
  const ScenarioResult a = run_scenario(quick(Algorithm::CombinedPull, 1));
  const ScenarioResult b = run_scenario(quick(Algorithm::CombinedPull, 2));
  EXPECT_NE(a.sim_events_executed, b.sim_events_executed);
}

// Seed guard against the pre-wire-layer reference run: in SizingMode::Nominal
// the simulation must reproduce the exact numbers the codebase produced
// before the codec existed — the wire layer may only change behaviour when
// explicitly opted into. Constants captured from the seed build at
// quick(a, 404). If a change legitimately alters the simulation (paper-
// fidelity fix, RNG reordering), re-capture them in the same commit and say
// so in the message.
TEST(Determinism, NominalModeMatchesPreWireSeedReference) {
  struct Reference {
    Algorithm algorithm;
    std::uint64_t events_published, expected_pairs, delivered_pairs,
        recovered_pairs, sim_events_executed, gossip_sends, event_sends;
    double delivery_rate;
  };
  // Pin bump: the link/direct/burst loss and latency streams moved from one
  // shared RNG to per-sender forks, which reordered the draw sequence once;
  // values re-captured at that commit. These pins now fix that order.
  const Reference refs[] = {
      {Algorithm::Push, 2653, 1580, 1356, 280, 19531, 2451, 3493,
       0x1.b769a3f839087p-1},
      {Algorithm::CombinedPull, 2653, 1580, 1321, 256, 15931, 611, 3514,
       0x1.ac12259701f1cp-1},
  };
  for (const Reference& ref : refs) {
    ScenarioConfig cfg = quick(ref.algorithm, 404);
    // Pin explicitly: this guard must hold even when the suite runs under
    // EPICAST_SIZING=wire (the CI wire job).
    cfg.sizing_mode = SizingMode::Nominal;
    const ScenarioResult r = run_scenario(cfg);
    SCOPED_TRACE(to_string(ref.algorithm));
    EXPECT_EQ(r.events_published, ref.events_published);
    EXPECT_EQ(r.expected_pairs, ref.expected_pairs);
    EXPECT_EQ(r.delivered_pairs, ref.delivered_pairs);
    EXPECT_EQ(r.recovered_pairs, ref.recovered_pairs);
    EXPECT_EQ(r.sim_events_executed, ref.sim_events_executed);
    EXPECT_EQ(r.traffic.gossip_sends(), ref.gossip_sends);
    EXPECT_EQ(r.traffic.event_sends(), ref.event_sends);
    EXPECT_DOUBLE_EQ(r.delivery_rate, ref.delivery_rate);
  }
}

// Companion guard in SizingMode::Wire, capturing the same seed build with
// byte-accurate frame sizing. Together with the nominal guard above it pins
// the full behaviour surface of the hot-path work (pooled allocation,
// pattern bitsets, flat caches): none of it may move a single RNG draw or
// reorder a single send in either mode.
TEST(Determinism, WireModeMatchesSeedReference) {
  struct Reference {
    Algorithm algorithm;
    std::uint64_t delivered_pairs, recovered_pairs, sim_events_executed,
        gossip_sends, event_sends, gossip_bytes, event_bytes;
    double delivery_rate;
  };
  // Re-captured together with the nominal pins above (same per-sender RNG
  // stream partition, same commit).
  const Reference refs[] = {
      {Algorithm::Push, 1356, 301, 19445, 2410, 3484, 109556, 776932,
       0x1.b769a3f839087p-1},
      {Algorithm::CombinedPull, 1332, 263, 16026, 674, 3582, 51313, 808817,
       0x1.afa2ac651a928p-1},
  };
  for (const Reference& ref : refs) {
    ScenarioConfig cfg = quick(ref.algorithm, 404);
    cfg.sizing_mode = SizingMode::Wire;
    const ScenarioResult r = run_scenario(cfg);
    SCOPED_TRACE(to_string(ref.algorithm));
    EXPECT_EQ(r.events_published, 2653u);
    EXPECT_EQ(r.expected_pairs, 1580u);
    EXPECT_EQ(r.delivered_pairs, ref.delivered_pairs);
    EXPECT_EQ(r.recovered_pairs, ref.recovered_pairs);
    EXPECT_EQ(r.sim_events_executed, ref.sim_events_executed);
    EXPECT_EQ(r.traffic.gossip_sends(), ref.gossip_sends);
    EXPECT_EQ(r.traffic.event_sends(), ref.event_sends);
    EXPECT_EQ(r.traffic.gossip_bytes(), ref.gossip_bytes);
    EXPECT_EQ(r.traffic.event_bytes(), ref.event_bytes);
    EXPECT_DOUBLE_EQ(r.delivery_rate, ref.delivery_rate);
  }
}

// Seed guard on FIFO eviction. At β=1500 quick()'s caches never fill, so
// the guards above never evict; at β=150 they evict throughout the window,
// and the order of eviction decides what every digest and request finds.
// Captured from the build whose caches kept a linked slot list, before
// the eviction order became a ring of registry entries. The publisher-pull
// row steers every round by the Routes buffer (combined pull steers about
// half of them); it was captured from the build whose Routes buffer kept
// each source's whole reversed route, before it kept only the tail a
// publisher-bound digest visits.
TEST(Determinism, FifoEvictionMatchesSeedReference) {
  struct Reference {
    Algorithm algorithm;
    std::uint64_t delivered_pairs, recovered_pairs, sim_events_executed,
        gossip_sends, event_sends, events_served;
    double delivery_rate;
  };
  const Reference refs[] = {
      {Algorithm::Push, 1361, 285, 19462, 2453, 3493, 840,
       0x1.b9086ce18a0bbp-1},
      {Algorithm::CombinedPull, 1311, 246, 16313, 611, 3514, 652,
       0x1.a8d493c45feb4p-1},
      {Algorithm::PublisherPull, 1351, 270, 16390, 802, 3606, 628,
       0x1.b5cadb0ee8053p-1},
  };
  for (const Reference& ref : refs) {
    ScenarioConfig cfg = quick(ref.algorithm, 404);
    cfg.sizing_mode = SizingMode::Nominal;
    cfg.gossip.buffer_size = 150;
    const ScenarioResult r = run_scenario(cfg);
    SCOPED_TRACE(to_string(ref.algorithm));
    EXPECT_EQ(r.events_published, 2653u);
    EXPECT_EQ(r.expected_pairs, 1580u);
    EXPECT_EQ(r.delivered_pairs, ref.delivered_pairs);
    EXPECT_EQ(r.recovered_pairs, ref.recovered_pairs);
    EXPECT_EQ(r.sim_events_executed, ref.sim_events_executed);
    EXPECT_EQ(r.traffic.gossip_sends(), ref.gossip_sends);
    EXPECT_EQ(r.traffic.event_sends(), ref.event_sends);
    EXPECT_EQ(r.gossip_totals.events_served, ref.events_served);
    EXPECT_DOUBLE_EQ(r.delivery_rate, ref.delivery_rate);
  }
}

// Seed guard on the set-up passes: mean_pairwise_distance is not part of
// result_json, so the identity checks above never see it. Pinned to the
// values of the one-BFS-per-source scan on the paper's tree and on a
// Barabási–Albert overlay with Oracle bootstrap — the latter also pins the
// counts of a run whose routes come from the routing oracle on a cyclic
// graph, where its tie-break decides every table.
TEST(Determinism, SetupPassesMatchSeedReference) {
  ScenarioConfig tree = quick(Algorithm::CombinedPull, 404);
  tree.sizing_mode = SizingMode::Nominal;
  EXPECT_EQ(run_scenario(tree).mean_pairwise_distance,
            0x1.ec7691840ac77p+1);  // 3.8473684210526318

  ScenarioConfig ba = quick(Algorithm::CombinedPull, 404);
  ba.sizing_mode = SizingMode::Nominal;
  ba.nodes = 120;
  ba.publisher_count = 12;
  ba.overlay = OverlayKind::BarabasiAlbert;
  ba.overlay_degree = 4;
  ba.bootstrap = ScenarioConfig::SubscriptionBootstrap::Oracle;
  const ScenarioResult r = run_scenario(ba);
  EXPECT_EQ(r.mean_pairwise_distance, 0x1.841af6641af66p+1);  // 3.03207…
  EXPECT_EQ(r.events_published, 1613u);
  EXPECT_EQ(r.expected_pairs, 5814u);
  EXPECT_EQ(r.delivered_pairs, 5746u);
  EXPECT_EQ(r.recovered_pairs, 197u);
  EXPECT_EQ(r.sim_events_executed, 129977u);
  EXPECT_EQ(r.traffic.gossip_sends(), 1354u);
  EXPECT_EQ(r.traffic.event_sends(), 45229u);
  EXPECT_DOUBLE_EQ(r.delivery_rate, 0x1.fa02fe80bfa03p-1);
}

TEST(DeterminismDeathTest, ValidateRejectsShardsOrThreadsOtherThanOne) {
  // The sharded engine is gone; the two fields remain only as leftovers
  // pinned to 1, and a config asking for anything else must not run
  // serially in silence.
  EXPECT_EQ(ScenarioConfig{}.shards, 1u);
  EXPECT_EQ(ScenarioConfig{}.threads, 1u);
  for (const std::uint32_t bad : {0u, 2u, 4u}) {
    ScenarioConfig shards = quick(Algorithm::Push, 1);
    shards.shards = bad;
    EXPECT_DEATH(shards.validate(), "ScenarioConfig::shards") << bad;
    ScenarioConfig threads = quick(Algorithm::Push, 1);
    threads.threads = bad;
    EXPECT_DEATH(threads.validate(), "ScenarioConfig::threads") << bad;
  }
}

TEST(Determinism, EmptyFaultPlanAndRetryDefaultsAreInert) {
  // The chaos subsystem must be invisible when unused: the default config
  // carries an empty plan (no controller, no forked RNG streams — the seed
  // guards above pin the bit-identity) and request_timeout = 0 keeps every
  // retry counter at zero. Assert directly so a regression names the
  // culprit instead of showing up as a seed-guard mismatch.
  ScenarioConfig cfg = quick(Algorithm::CombinedPull, 404);
  EXPECT_TRUE(cfg.faults.empty());
  const ScenarioResult r = run_scenario(cfg);
  EXPECT_EQ(r.fault.stats.crashes, 0u);
  EXPECT_EQ(r.fault.stats.burst_drops, 0u);
  EXPECT_EQ(r.fault.stats.partitions_applied, 0u);
  EXPECT_TRUE(r.fault.epochs.empty());
  EXPECT_DOUBLE_EQ(r.fault.last_heal_s, 0.0);
  EXPECT_EQ(r.gossip_totals.request_timeouts, 0u);
  EXPECT_EQ(r.gossip_totals.request_retries, 0u);
  EXPECT_EQ(r.gossip_totals.requests_abandoned, 0u);
}

TEST(Determinism, PoolModeDoesNotAffectResults) {
  // EPICAST_POOL only switches the allocator under the shared_ptrs; pooled
  // and pass-through builds must be bit-identical. (CI exercises the env
  // switch; here we compare the modes directly through the same scenario.)
  const ScenarioConfig cfg = quick(Algorithm::Push, 404);
  const ScenarioResult a = run_scenario(cfg);
  const ScenarioResult b = run_scenario(cfg);
  expect_identical(a, b);
  // Pool counters are observability only, but they must be deterministic
  // too, and coherent: the snapshot is taken while the delivery tracker
  // still holds the published events, so exactly those are live.
  EXPECT_GT(a.pool.allocations, 0u);
  EXPECT_EQ(a.pool.allocations, b.pool.allocations);
  EXPECT_EQ(a.pool.reuses, b.pool.reuses);
  EXPECT_LE(a.pool.deallocations, a.pool.allocations);
  EXPECT_EQ(a.pool.live(), a.events_published);
}

TEST(Determinism, PoolSnapshotExcludesFramesInFlightAtEndTime) {
  // Frames still on the wire at end_time are live pool blocks until the
  // run discards them; the snapshot is taken after that, so only the
  // tracker's published events remain. A 1.1 s measure window ends this
  // nominal-sizing run with frames in flight.
  ScenarioConfig cfg = quick(Algorithm::Push, 404);
  cfg.sizing_mode = SizingMode::Nominal;
  cfg.measure = Duration::seconds(1.1);
  const ScenarioResult r = run_scenario(cfg);
  EXPECT_EQ(r.pool.live(), r.events_published);
}

TEST(Determinism, ProfilerTimingFlagDoesNotAffectResults) {
  // The hot-path profiler draws no randomness and sends no messages: runs
  // with and without nanosecond timing must be bit-identical, timing only
  // changes what the snapshot reports.
  ScenarioConfig off = quick(Algorithm::CombinedPull, 404);
  off.profile_hotpath = false;
  ScenarioConfig on = off;
  on.profile_hotpath = true;
  const ScenarioResult a = run_scenario(off);
  const ScenarioResult b = run_scenario(on);
  expect_identical(a, b);
  // Op counts are always on and mode-independent...
  EXPECT_EQ(a.hotpath[HotPhase::Dispatch].ops, b.hotpath[HotPhase::Dispatch].ops);
  EXPECT_FALSE(a.hotpath.timed);
  EXPECT_TRUE(b.hotpath.timed);
  // ...while nanoseconds only accumulate when timing is enabled.
  EXPECT_EQ(a.hotpath[HotPhase::Dispatch].ns, 0u);
  EXPECT_GT(b.hotpath[HotPhase::Dispatch].ns, 0u);
}

TEST(Determinism, WireSizingRerunIsBitIdentical) {
  ScenarioConfig cfg = quick(Algorithm::CombinedPull, 404);
  cfg.sizing_mode = SizingMode::Wire;
  expect_identical(run_scenario(cfg), run_scenario(cfg));
}

TEST(Determinism, WireSizingChargesDifferentBytesThanNominal) {
  ScenarioConfig nominal = quick(Algorithm::Push, 404);
  nominal.sizing_mode = SizingMode::Nominal;
  ScenarioConfig wire = nominal;
  wire.sizing_mode = SizingMode::Wire;
  const ScenarioResult a = run_scenario(nominal);
  const ScenarioResult b = run_scenario(wire);
  // Messages flow in both modes and the byte accounting reflects the mode:
  // nominal charges the configured constants, wire the actual frames.
  EXPECT_GT(a.traffic.gossip_bytes(), 0u);
  EXPECT_GT(b.traffic.gossip_bytes(), 0u);
  EXPECT_NE(a.traffic.gossip_bytes(), b.traffic.gossip_bytes());
  EXPECT_NE(a.traffic.event_bytes(), b.traffic.event_bytes());
}

// The scheduler's slab recycles slots aggressively under cancel churn; the
// firing order must stay a pure function of the schedule/cancel sequence —
// FIFO at equal timestamps, regardless of which slots the survivors landed
// in.
TEST(Determinism, SchedulerOrderUnderCancelChurnIsReproducible) {
  auto run_once = [](std::uint64_t seed) {
    Rng rng(seed);
    Scheduler s;
    std::vector<std::uint64_t> fired;
    std::vector<EventHandle> handles;
    std::uint64_t next = 0;
    for (int op = 0; op < 2000; ++op) {
      if (rng.chance(0.6) || handles.empty()) {
        const std::uint64_t id = next++;
        // Only 3 distinct timestamps: most events tie, stressing the FIFO
        // tie-break while slots are recycled underneath.
        handles.push_back(
            s.schedule_at(SimTime::seconds(1.0 + rng.next_below(3)),
                          [&fired, id] { fired.push_back(id); }));
      } else {
        handles[rng.next_below(handles.size())].cancel();
      }
    }
    s.run();
    return fired;
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    EXPECT_EQ(run_once(seed), run_once(seed)) << "seed " << seed;
  }
}

TEST(Determinism, SchedulerFifoHoldsAfterMassCancellation) {
  // Cancel a large prefix scheduled at the same instant, then add more at
  // that instant: the survivors and late-comers fire strictly in
  // scheduling order.
  Scheduler s;
  std::vector<int> order;
  std::vector<EventHandle> first_wave;
  for (int i = 0; i < 500; ++i) {
    first_wave.push_back(
        s.schedule_at(SimTime::seconds(2.0), [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 400; ++i) EXPECT_TRUE(first_wave[i].cancel());
  for (int i = 500; i < 600; ++i) {
    s.schedule_at(SimTime::seconds(2.0), [&order, i] { order.push_back(i); });
  }
  s.run();
  std::vector<int> expected;
  for (int i = 400; i < 600; ++i) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(Determinism, SeedVarianceIsSmall) {
  // The paper (§IV-A) reports 1–2% variation across seeds and therefore
  // plots single runs. Verify the reproduction behaves the same way.
  double min_rate = 1.0, max_rate = 0.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ScenarioConfig cfg = quick(Algorithm::CombinedPull, seed);
    cfg.nodes = 40;
    const double rate = run_scenario(cfg).delivery_rate;
    min_rate = std::min(min_rate, rate);
    max_rate = std::max(max_rate, rate);
  }
  EXPECT_LT(max_rate - min_rate, 0.08);
}

}  // namespace
}  // namespace epicast
