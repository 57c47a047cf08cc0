// epicast — static cluster description for real-socket deployments.
//
// One text file describes the whole cluster: topology, endpoints,
// subscriptions, the recovery algorithm and its knobs, and the workload the
// daemons generate. Every epicastd process loads the same file and picks its
// own row by --node-id, so the cluster's shared state is a file — no
// membership protocol, matching the paper's static-deployment evaluation
// model (§IV-A).
//
// Format: one directive per line, '#' starts a comment.
//
//   node <id> <ipv4> <port>       # one per node; ids dense [0, N)
//   link <a> <b>                  # overlay link (symmetric)
//   sub <node> <pattern>          # node subscribes to pattern
//   algorithm <name>              # none|push|subscriber-pull|
//                                 #   publisher-pull|combined-pull|random-pull
//   gossip-interval-ms <float>    # T  (paper Fig. 2: 30)
//   beta <int>                    # β  retransmission buffer size
//   pforward <float>              # P_forward
//   psource <float>               # P_source (combined pull)
//   request-timeout-ms <float>    # pull retry hardening (0 = off)
//   pattern-universe <int>        # Π
//   patterns-per-event <int>      # patterns drawn per published event
//   payload-bytes <int>           # event payload size
//   rate <float>                  # per-publisher publish rate (events/s)
//   publisher <id>                # repeatable; none listed = all publish
//   settle <float>                # seconds before publishing starts
//   run <float>                   # seconds of measured publishing
//   drain <float>                 # seconds of recovery tail after publishing
//   drop-rate <float>             # synthetic receive-side ε
//   seed <int>                    # RNG seed base (node id is added)
//   sizing wire|nominal           # must be wire: validate() rejects nominal
//   queue-capacity <int>          # bounded inbound frame queue
//   oracles on|off                # runtime conformance oracles
//   heartbeat-interval-ms <float> # failure-detector beacons (0 = off)
//   epoch-ns <int>                # shared CLOCK_MONOTONIC epoch (-1 = local)
//   faults <spec>                 # wire fault plan: burst/slow/partition
//                                 #   (fault/plan.hpp grammar; churn invalid)
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "epicast/common/ids.hpp"
#include "epicast/fault/plan.hpp"
#include "epicast/gossip/config.hpp"
#include "epicast/net/message.hpp"
#include "epicast/runtime/async_runtime.hpp"

namespace epicast::runtime {

struct ClusterConfig {
  /// endpoints[i] is node i's UDP endpoint; ids must be dense [0, N).
  std::vector<PeerEndpoint> endpoints;
  std::vector<std::pair<NodeId, NodeId>> links;
  std::vector<std::pair<NodeId, Pattern>> subscriptions;

  Algorithm algorithm = Algorithm::CombinedPull;
  GossipConfig gossip;

  std::uint32_t pattern_universe = 16;
  std::uint32_t patterns_per_event = 1;
  std::size_t event_payload_bytes = 1000;
  /// Poisson publish rate per publishing node (events/second).
  double publish_rate_hz = 10.0;
  /// Nodes that publish; empty = every node.
  std::vector<NodeId> publishers;

  double settle_seconds = 1.0;
  double run_seconds = 10.0;
  double drain_seconds = 2.0;

  double drop_rate = 0.0;
  std::uint64_t seed = 1;
  SizingMode sizing = SizingMode::Wire;
  std::size_t queue_capacity = 4096;
  bool oracles = true;

  /// True once a request-timeout-ms directive appeared. Daemon mode turns
  /// retry hardening on by default (3× the gossip interval) when the
  /// config is silent; the simulator default stays off (seed guards pin
  /// fault-free sim results bit-exactly).
  bool request_timeout_set = false;

  /// Liveness beacon period of the daemon's failure detector; 0 disables
  /// heartbeats (and with them suspicion, death confirmation, and route
  /// repair).
  double heartbeat_interval_ms = 250.0;

  /// Shared CLOCK_MONOTONIC epoch (see AsyncRuntimeConfig::clock_epoch_ns);
  /// the cluster harness writes time.monotonic_ns() here so every daemon —
  /// including ones relaunched mid-run — lives on one timeline. -1 keeps
  /// per-process construction epochs.
  std::int64_t clock_epoch_ns = -1;

  /// Wire-level fault plan executed by every daemon's AsyncRuntime
  /// (`faults <spec>` directive / epicastd --faults override). Churn specs
  /// are invalid here — the harness --chaos schedule kills real processes.
  fault::FaultPlan faults;

  [[nodiscard]] std::uint32_t node_count() const {
    return static_cast<std::uint32_t>(endpoints.size());
  }

  /// Throws std::invalid_argument on inconsistency (missing nodes, ids out
  /// of range, patterns outside the universe, bad probabilities, ...).
  void validate() const;
};

/// Parses the directive format above. Throws std::invalid_argument with the
/// offending line number on syntax errors; the result is validate()d.
[[nodiscard]] ClusterConfig parse_cluster_config(const std::string& text);

/// Reads and parses `path`. Throws std::runtime_error if unreadable.
[[nodiscard]] ClusterConfig load_cluster_config(const std::string& path);

/// Parses an algorithm name as used by the `algorithm` directive (and the
/// epicast_sim --algorithm flag). Throws std::invalid_argument on unknown
/// names.
[[nodiscard]] Algorithm parse_algorithm_name(const std::string& name);

}  // namespace epicast::runtime
