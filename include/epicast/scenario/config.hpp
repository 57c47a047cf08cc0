// epicast — scenario configuration: the paper's Fig. 2 parameter table plus
// the simulation housekeeping the paper leaves implicit.
//
// A scenario is fully reproducible from this struct: same config + seed →
// bit-identical run.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "epicast/common/env.hpp"
#include "epicast/fault/plan.hpp"
#include "epicast/gossip/config.hpp"
#include "epicast/net/message.hpp"
#include "epicast/net/overlays.hpp"
#include "epicast/sim/time.hpp"

namespace epicast {

struct ScenarioConfig {
  /// Degree cap of the paper's random tree (§IV-A).
  static constexpr std::uint32_t kTreeMaxDegree = 4;
  /// Subscription-forwarding floods run and settle before publishing
  /// starts, for this long.
  static constexpr Duration kSubscriptionPhase = Duration::millis(500);

  // -- identity --------------------------------------------------------------
  std::uint64_t seed = 1;

  // -- dispatching network (Fig. 2) -------------------------------------------
  std::uint32_t nodes = 100;                ///< N
  std::uint32_t pattern_universe = 70;      ///< Π
  std::uint32_t patterns_per_subscriber = 2;///< πmax (each node subscribes to
                                            ///< exactly this many patterns)
  std::uint32_t patterns_per_event = 3;     ///< paper: events match ≤ 3
  double publish_rate_hz = 50.0;            ///< per dispatcher (Poisson)
  /// Event message size. The paper leaves this unspecified; 200 B keeps the
  /// 10 Mbit/s links in the loss-dominated regime the paper evaluates (the
  /// baseline delivery rate is set by ε, not by queueing) even at the high
  /// publish load. See DESIGN.md.
  std::size_t event_payload_bytes = 200;

  // -- scale overlays and skewed workloads (beyond Fig. 2) ---------------------
  /// Overlay family. `Tree` is the paper's random tree (built with
  /// kTreeMaxDegree, bit-identical to the seed runs); the other families are
  /// the scale-study overlays of net/overlays.hpp, parameterized by
  /// `overlay_degree` (BA attachment count is overlay_degree/2, so the mean
  /// degree lands near the tree's cap).
  OverlayKind overlay = OverlayKind::Tree;
  std::uint32_t overlay_degree = 4;
  /// Watts–Strogatz rewiring probability (ignored by other families).
  double ws_rewire = 0.1;

  /// Zipf exponent s of pattern popularity: pattern rank r is drawn with
  /// probability ∝ 1/(r+1)^s for subscriptions and event content alike.
  /// 0 keeps the paper's uniform draws — and the exact RNG sequence.
  double zipf_exponent = 0.0;
  /// Skew of per-node subscription counts: 0 gives every node exactly
  /// πmax patterns (the paper); s > 0 draws each node's count from a
  /// truncated power law P(k) ∝ k^(-s) over [1, min(Π, max(2·πmax, 8))].
  double subscription_skew = 0.0;

  /// How many dispatchers publish. 0 (the paper, and the default) means
  /// every dispatcher runs its own Poisson publisher. A positive count
  /// restricts publishing to that many evenly-spaced dispatcher ids, each
  /// still publishing at `publish_rate_hz` — the few-producers/many-
  /// consumers regime of real deployments, and the only way to keep
  /// per-(source, pattern) streams dense enough for sequence-gap loss
  /// detection once per-node rate shrinks with N.
  std::uint32_t publisher_count = 0;

  /// How subscriptions become routing state. `Flood` simulates the §II
  /// subscription-forwarding floods (the paper's behaviour, verified
  /// against the oracle). `Oracle` installs the converged tables directly
  /// (Dispatcher::subscribe_local + rebuild_routes) — the only affordable
  /// bootstrap at 10⁴⁺ nodes, where the floods alone would dominate the
  /// simulation.
  enum class SubscriptionBootstrap { Flood, Oracle };
  SubscriptionBootstrap bootstrap = SubscriptionBootstrap::Flood;

  // -- sources of event loss ---------------------------------------------------
  double link_error_rate = 0.1;             ///< ε
  /// Loss rate of the out-of-band channel; defaults to ε when unset
  /// ("not necessarily reliable, e.g. UDP-based", §III-B).
  std::optional<double> oob_loss_rate;
  /// ρ: interval between reconfigurations; nullopt = ∞ (no churn, Fig. 2).
  /// Each broken link is repaired after ReconfigConfig's default 0.1 s.
  std::optional<Duration> reconfiguration_interval;

  /// How subscription routes are restored after a topology change:
  /// `Oracle` installs the converged outcome of ref [7]'s protocol
  /// instantly at repair time (the paper-equivalent default); `Protocol`
  /// runs the distributed retraction/re-advertisement over control
  /// messages, so restoration itself takes time and traffic.
  enum class RouteRepair { Oracle, Protocol };
  RouteRepair route_repair = RouteRepair::Oracle;

  // -- recovery ----------------------------------------------------------------
  Algorithm algorithm = Algorithm::NoRecovery;
  GossipConfig gossip;  ///< T, β, P_forward, P_source, …

  // -- fault injection ---------------------------------------------------------
  /// Declarative chaos plan (node churn, bursty links, slowdowns, scripted
  /// partitions); times are relative to publish_start(). The default comes
  /// from EPICAST_FAULTS; an empty plan constructs no controller at all and
  /// the run is bit-identical to a fault-free build.
  fault::FaultPlan faults = env::settings().faults;

  /// How message sizes are charged to links and byte counters: `Nominal`
  /// uses the configured constants (the paper's equal-size assumption —
  /// keeps published figures bit-identical), `Wire` uses the codec-computed
  /// frame size of each message. Defaults from EPICAST_SIZING.
  SizingMode sizing_mode = env::settings().sizing;

  /// Wire the runtime conformance oracles (epicast/oracle) into the run:
  /// pure observers checking delivery/buffer/digest/wire safety properties
  /// live, aborting on the first violation. Defaults on; EPICAST_ORACLES=0
  /// turns them off for overhead-sensitive benchmarking.
  bool oracles = env::settings().oracles;

  /// Nanosecond timing for the hot-path phase profiler. Op counts are always
  /// collected (ScenarioResult::hotpath); enabling this adds two clock reads
  /// per phase entry, so it is off by default. Defaults from
  /// EPICAST_PROFILE. Timing changes no RNG draw and no simulated time:
  /// results stay bit-identical either way.
  bool profile_hotpath = env::settings().profile;

  /// Leftovers of the removed sharded engine: the only accepted value is 1,
  /// and validate() aborts on any other. They remain only because
  /// perfbench/workload.cpp still assigns both; they go once the benchmark
  /// drops that pin.
  std::uint32_t shards = 1;
  std::uint32_t threads = 1;

  // -- timeline ----------------------------------------------------------------
  /// Publishing (and losses, and gossip) before measurement starts.
  Duration warmup = Duration::seconds(1.5);
  /// Length of the measurement window.
  Duration measure = Duration::seconds(10.0);
  /// A delivery counts if it happens within this horizon of publication;
  /// the simulation runs this much past the window so late buckets are not
  /// biased. The default is of the order of the buffer persistence at the
  /// paper's defaults (β=1500 ≈ 3.5 s) — recovery beyond the buffer
  /// lifetime is impossible anyway.
  Duration recovery_horizon = Duration::seconds(3.0);
  /// Publish-time bucket width of the delivery-rate time series.
  Duration bucket_width = Duration::millis(100);

  // -- derived -----------------------------------------------------------------
  [[nodiscard]] SimTime publish_start() const {
    return SimTime::zero() + kSubscriptionPhase;
  }
  [[nodiscard]] SimTime window_start() const {
    return publish_start() + warmup;
  }
  [[nodiscard]] SimTime window_end() const { return window_start() + measure; }
  [[nodiscard]] SimTime end_time() const {
    return window_end() + recovery_horizon + Duration::millis(200);
  }
  [[nodiscard]] double effective_oob_loss() const {
    return oob_loss_rate.value_or(link_error_rate);
  }

  /// Aborts (with a message) on inconsistent parameters.
  void validate() const;

  /// Paper defaults (Fig. 2) with the given algorithm.
  [[nodiscard]] static ScenarioConfig paper_defaults(Algorithm algorithm);

  /// Human-readable one-per-line dump (bench_fig2_params).
  [[nodiscard]] std::string describe() const;
};

}  // namespace epicast
