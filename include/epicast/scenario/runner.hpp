// epicast — end-to-end scenario execution.
//
// Builds the full stack (topology → transport → dispatchers → recovery →
// workload → metrics) from a ScenarioConfig, runs the simulation timeline,
// and returns every quantity the paper's figures need.
//
// Timeline:
//   0 ……………………… subscription floods settle (verified against the oracle)
//   publish_start … Poisson publishing + gossip rounds (+ churn) begin
//   window_start …… measurement window opens (warmup excluded)
//   window_end ……… window closes; publishing continues so late gaps are
//                    still detectable
//   end_time ………… recovery horizon past the window; simulation stops
#pragma once

#include <cstdint>

#include "epicast/common/message_pool.hpp"
#include "epicast/fault/plan.hpp"
#include "epicast/gossip/protocol.hpp"
#include "epicast/metrics/hotpath_profiler.hpp"
#include "epicast/metrics/message_stats.hpp"
#include "epicast/metrics/time_series.hpp"
#include "epicast/scenario/config.hpp"

namespace epicast {

struct ScenarioResult {
  // -- delivery (§IV-B) -------------------------------------------------------
  double delivery_rate = 0.0;           ///< within the recovery horizon
  double eventual_delivery_rate = 0.0;  ///< ignoring the horizon
  double receivers_per_event = 0.0;     ///< Fig. 7 metric
  double mean_recovery_latency_s = 0.0;
  double recovery_latency_p50_s = 0.0;
  double recovery_latency_p90_s = 0.0;
  double recovery_latency_p99_s = 0.0;
  std::uint64_t events_published = 0;   ///< whole run
  std::uint64_t events_tracked = 0;     ///< inside the window
  std::uint64_t expected_pairs = 0;
  std::uint64_t delivered_pairs = 0;
  std::uint64_t recovered_pairs = 0;
  TimeSeries delivery_series;           ///< delivery rate vs publish time

  // -- overhead (§IV-E), measured inside the window ----------------------------
  double gossip_msgs_per_dispatcher = 0.0;
  double gossip_event_ratio = 0.0;
  /// Byte-denominated counterparts, in the configured SizingMode's units
  /// (nominal constants or codec wire-frame sizes).
  double gossip_bytes_per_dispatcher = 0.0;
  double gossip_event_byte_ratio = 0.0;
  MessageStats::Snapshot traffic;

  // -- recovery-protocol internals, whole run, summed over dispatchers ---------
  GossipProtocolBase::Stats gossip_totals;

  // -- environment --------------------------------------------------------------
  double mean_pairwise_distance = 0.0;  ///< of the initial tree
  std::uint64_t reconfig_breaks = 0;
  std::uint64_t reconfig_repairs = 0;
  std::uint64_t reconfig_deferred = 0;  ///< repairs re-queued (crashed side)
  std::uint64_t drops_no_link = 0;      ///< stale-route drops, whole run

  // -- fault injection ------------------------------------------------------------
  /// Execution counters, per-epoch delivery ratios, and post-heal
  /// convergence latency for the run's FaultPlan (all-zero when empty).
  fault::FaultSummary fault;

  // -- hot-path attribution ------------------------------------------------------
  /// Per-phase op counts (always) and inclusive nanoseconds (when
  /// ScenarioConfig::profile_hotpath was set).
  HotpathProfiler::Snapshot hotpath;
  /// Message-pool counters for the run (allocations, reuses, slab bytes).
  MessagePool::Stats pool;

  // -- memory footprint (scale figures) -----------------------------------------
  /// Bytes owned by the hot per-node state at scenario end, by component.
  /// `routing` covers subscription tables + duplicate-suppression masks
  /// across all dispatchers; `seen` the event dedup sets; `caches` the
  /// retransmission buffers' containers (not the shared events); `topology`
  /// the adjacency (mutation vectors + CSR + BFS scratch); `tracker` the
  /// delivery-metric bookkeeping.
  struct MemoryBreakdown {
    std::uint32_t node_count = 0;
    std::size_t topology_bytes = 0;
    std::size_t routing_bytes = 0;
    std::size_t seen_bytes = 0;
    std::size_t cache_bytes = 0;
    std::size_t tracker_bytes = 0;
    [[nodiscard]] std::size_t total_bytes() const {
      return topology_bytes + routing_bytes + seen_bytes + cache_bytes +
             tracker_bytes;
    }
    [[nodiscard]] double bytes_per_node() const {
      return node_count == 0
                 ? 0.0
                 : static_cast<double>(total_bytes()) / node_count;
    }
  };
  MemoryBreakdown memory;

  // -- bookkeeping ----------------------------------------------------------------
  std::uint64_t sim_events_executed = 0;
  /// Conformance checks performed by the oracle suite (0 when oracles are
  /// disabled). Tests assert this is non-zero to prove oracles were active.
  std::uint64_t oracle_checks = 0;
  double wall_seconds = 0.0;
};

/// Runs one scenario to completion. Deterministic in (config, seed);
/// thread-safe (no shared state), so sweeps may run scenarios in parallel.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioConfig& config);

}  // namespace epicast
