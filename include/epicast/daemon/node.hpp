// epicast — epicastd's core: one dispatching server on real UDP sockets.
//
// A NodeDaemon is the runtime-seam counterpart of one PubSubNetwork slot:
// it owns an AsyncRuntime, attaches a single Dispatcher to it, installs the
// converged subscription routes for the whole (static) cluster, starts the
// configured recovery protocol, generates this node's share of the
// workload, and records every publish and delivery for offline aggregation
// by the cluster harness.
//
// Routes are bootstrapped the way PubSubNetwork::rebuild_routes() does it
// in simulation (oracle bootstrap): each daemon runs the one routing oracle
// (compute_routing_oracle, pubsub/routing_oracle.hpp) over the shared
// config file and installs its own rows — no subscription flooding phase,
// and all daemons agree by construction.
#pragma once

#include <csignal>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "epicast/daemon/failure_detector.hpp"
#include "epicast/daemon/journal.hpp"
#include "epicast/fault/restart_policy.hpp"
#include "epicast/metrics/latency_histogram.hpp"
#include "epicast/oracle/checks.hpp"
#include "epicast/oracle/oracle.hpp"
#include "epicast/pubsub/dispatcher.hpp"
#include "epicast/pubsub/pattern.hpp"
#include "epicast/runtime/async_runtime.hpp"
#include "epicast/runtime/cluster.hpp"

namespace epicast::daemon {

/// Per-process knobs that are not cluster-wide state (and thus not in the
/// shared ClusterConfig): where this node journals, and how it remembers a
/// previous life.
struct DaemonOptions {
  /// Append-only journal path; empty disables journaling (and with it
  /// crash-restart recovery — a relaunch then starts from scratch).
  std::string journal_path;
  /// State-loss policy applied when the journal shows earlier boots.
  fault::RestartPolicy restart_policy = fault::RestartPolicy::Warm;
  /// Under Warm, periodically snapshot the retransmission buffer to
  /// `<journal>.cache` and preload it on restart.
  bool cache_snapshot = false;
};

class NodeDaemon {
 public:
  /// Validates `cluster`, builds the runtime (this is where a non-Wire
  /// sizing mode becomes a hard std::invalid_argument), binds the node's
  /// socket, installs routes, and wires recovery + oracles. The daemon is
  /// ready to run() afterwards. When `opts` names a journal with earlier
  /// boots in it, the constructor replays it: duplicate-suppression and
  /// publish counters are restored, the recovery protocol is told
  /// on_restart(policy), and publish/delivery logs continue cumulatively.
  NodeDaemon(runtime::ClusterConfig cluster, NodeId self,
             DaemonOptions opts = {});

  NodeDaemon(const NodeDaemon&) = delete;
  NodeDaemon& operator=(const NodeDaemon&) = delete;

  /// Executes the full lifecycle: settle, publish window, drain. Returns
  /// when the drain ends or when `stop_flag` (a signal handler's
  /// sig_atomic_t) becomes non-zero.
  void run(const volatile std::sig_atomic_t* stop_flag = nullptr);

  /// Per-node stats document: publishes, deliveries, subscription set,
  /// transport and gossip counters, plus an embedded
  /// epicast::metrics::result_json of the locally known ScenarioResult
  /// fields (the same serializer epicast_sim --json uses).
  [[nodiscard]] std::string stats_json() const;

  [[nodiscard]] NodeId self() const { return self_; }
  [[nodiscard]] runtime::AsyncRuntime& runtime() { return *rt_; }
  [[nodiscard]] Dispatcher& dispatcher() { return *dispatcher_; }
  [[nodiscard]] const runtime::ClusterConfig& cluster() const {
    return cluster_;
  }
  [[nodiscard]] const oracle::OracleSuite* oracles() const {
    return oracles_.get();
  }
  [[nodiscard]] oracle::OracleSuite* oracles() { return oracles_.get(); }
  /// nullptr when heartbeat-interval-ms is 0.
  [[nodiscard]] FailureDetector* failure_detector() {
    return failure_detector_.get();
  }
  /// This process lifetime's 1-based boot count (journal B records + 1).
  [[nodiscard]] std::uint64_t incarnation() const { return incarnation_; }
  /// True when the journal showed earlier boots (this run is a restart).
  [[nodiscard]] bool restarted() const { return restarted_; }
  [[nodiscard]] const metrics::LatencyHistogram& latency() const {
    return latency_;
  }

  struct PublishRecord {
    std::uint64_t seq;  ///< EventId::source_seq
    double t_s;
    std::vector<std::uint32_t> patterns;
  };
  struct DeliveryRecord {
    std::uint32_t source;
    std::uint64_t seq;
    double t_s;
    bool recovered;
  };
  [[nodiscard]] const std::vector<PublishRecord>& published() const {
    return published_;
  }
  [[nodiscard]] const std::vector<DeliveryRecord>& delivered() const {
    return delivered_;
  }

 private:
  void install_routes();
  void schedule_next_publish();
  void publish_one();
  [[nodiscard]] bool is_publisher() const;
  void replay_journal();
  void repair_routes_around(NodeId dead);
  void restore_links_of(NodeId returned);
  void write_snapshot();

  runtime::ClusterConfig cluster_;
  NodeId self_;
  DaemonOptions opts_;
  std::unique_ptr<runtime::AsyncRuntime> rt_;
  std::unique_ptr<Dispatcher> dispatcher_;
  std::unique_ptr<oracle::OracleSuite> oracles_;
  oracle::UniqueDeliveryOracle* unique_oracle_ = nullptr;  // owned by oracles_
  oracle::WireRoundTripOracle* wire_oracle_ = nullptr;  // owned by oracles_
  std::unique_ptr<Journal> journal_;
  std::unique_ptr<FailureDetector> failure_detector_;

  PatternUniverse universe_;
  Rng pub_rng_;
  SimTime publish_start_;
  SimTime publish_end_;
  SimTime drain_end_;
  runtime::TimerHandle publish_timer_;
  runtime::PeriodicTimer snapshot_timer_;

  std::uint64_t incarnation_ = 1;
  bool restarted_ = false;
  metrics::LatencyHistogram latency_;

  std::vector<PublishRecord> published_;
  std::vector<DeliveryRecord> delivered_;
};

}  // namespace epicast::daemon
