// epicast — declarative fault plans.
//
// A FaultPlan is a deterministic script of fault *processes* layered onto a
// scenario: node crash/restart churn (with a warm/cold state-loss policy),
// Gilbert–Elliott bursty link loss, timed bandwidth degradation, and
// scheduled multi-link partitions. The plan is pure data — execution (and
// every RNG stream it needs) belongs to FaultController — so ScenarioConfig
// can carry a plan by value and an empty plan costs nothing: run_scenario
// constructs no controller, forks no RNG, and stays bit-identical to a
// fault-free build (the determinism seed guards pin this).
//
// Plans have a compact textual grammar for --faults / EPICAST_FAULTS:
//
//   churn(period=1,down=0.3,policy=cold,start=0,stop=8)
//   burst(p=0.05,r=0.5,start=2,stop=6)
//   slow(factor=0.25,start=3,stop=5)
//   partition(links=3,at=4,heal=5.5)
//
// Processes are ';'-separated; keys may appear in any order; omitted keys
// take the struct defaults below. All times are seconds relative to the
// scenario's publish_start (the fault timeline begins when publishing does).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "epicast/fault/gilbert_elliott.hpp"
#include "epicast/fault/restart_policy.hpp"
#include "epicast/sim/time.hpp"

namespace epicast::fault {

/// Node crash/restart churn: every `period`, one random alive node crashes
/// and restarts `downtime` later under `policy`.
struct ChurnSpec {
  Duration period = Duration::seconds(1.0);
  Duration downtime = Duration::seconds(0.3);
  RestartPolicy policy = RestartPolicy::Warm;
  Duration start = Duration::zero();        ///< relative to publish_start
  std::optional<Duration> stop;             ///< nullopt = whole run
};

/// Gilbert–Elliott bursty loss on every overlay link inside the window.
struct BurstSpec {
  GilbertElliottParams channel;
  Duration start = Duration::zero();
  std::optional<Duration> stop;
};

/// Bandwidth degradation: links run at `factor` of their configured
/// bandwidth inside the window.
struct SlowSpec {
  double factor = 0.25;
  Duration start = Duration::zero();
  std::optional<Duration> stop;
};

/// Scheduled partition: `links` random overlay links removed at `at`,
/// re-added (degree cap permitting) at `heal`.
struct PartitionSpec {
  std::uint32_t links = 1;
  Duration at = Duration::zero();
  Duration heal = Duration::seconds(1.0);
};

struct FaultPlan {
  std::vector<ChurnSpec> churns;
  std::vector<BurstSpec> bursts;
  std::vector<SlowSpec> slows;
  std::vector<PartitionSpec> partitions;

  [[nodiscard]] bool empty() const {
    return churns.empty() && bursts.empty() && slows.empty() &&
           partitions.empty();
  }
  [[nodiscard]] std::size_t process_count() const {
    return churns.size() + bursts.size() + slows.size() + partitions.size();
  }

  /// Aborts (with a message) on inconsistent parameters.
  void validate() const;

  /// The plan back in grammar form ("" for an empty plan).
  [[nodiscard]] std::string describe() const;
};

/// Parses the grammar above. Returns nullopt and sets `error` (if given)
/// on malformed input.
[[nodiscard]] std::optional<FaultPlan> parse_plan(const std::string& spec,
                                                  std::string* error = nullptr);

/// Execution counters, filled by FaultController.
struct FaultStats {
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t cold_restarts = 0;     ///< subset of restarts
  std::uint64_t crash_drops = 0;       ///< messages dropped at crashed nodes
  std::uint64_t burst_drops = 0;       ///< Gilbert–Elliott losses
  std::uint64_t bursts_entered = 0;    ///< Good→Bad transitions, all links
  std::uint64_t partitions_applied = 0;///< links removed by partition specs
  std::uint64_t partitions_healed = 0; ///< links restored
  std::uint64_t heal_skipped_links = 0;///< re-adds skipped (degree/duplicate)
  std::uint64_t slow_windows = 0;      ///< bandwidth windows applied
};

/// Delivery degradation over one fault window, by publish time
/// (DeliveryTracker::pairs_in_range).
struct FaultEpoch {
  std::string label;        ///< e.g. "churn", "burst", "partition"
  double start_s = 0.0;     ///< absolute sim time, seconds
  double end_s = 0.0;
  std::uint64_t expected_pairs = 0;
  std::uint64_t delivered_pairs = 0;      ///< within the recovery horizon
  std::uint64_t eventual_pairs = 0;       ///< ignoring the horizon
  [[nodiscard]] double delivery_ratio() const {
    return expected_pairs == 0
               ? 1.0
               : static_cast<double>(delivered_pairs) /
                     static_cast<double>(expected_pairs);
  }
  [[nodiscard]] double eventual_ratio() const {
    return expected_pairs == 0
               ? 1.0
               : static_cast<double>(eventual_pairs) /
                     static_cast<double>(expected_pairs);
  }
};

/// Everything a run reports about its faults (ScenarioResult::fault).
struct FaultSummary {
  FaultStats stats;
  std::vector<FaultEpoch> epochs;
  /// When the plan's last heal/restart happened (seconds, 0 if none).
  double last_heal_s = 0.0;
  /// Seconds between the last heal and the last recovery-path delivery —
  /// how long the epidemic needed to converge once the network was whole
  /// again. 0 when nothing was recovered after the last heal.
  double post_heal_convergence_s = 0.0;
};

}  // namespace epicast::fault
