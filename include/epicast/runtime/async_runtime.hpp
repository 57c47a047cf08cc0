// epicast — the real-socket backend of the runtime seam.
//
// A single-threaded epoll event loop: one UDP socket per attached local
// node, timers in a Scheduler keyed on raw CLOCK_MONOTONIC nanoseconds
// with one timerfd armed at the earliest deadline, and a bounded inbound
// frame queue between the sockets and the protocol handlers (drop-newest on
// overflow, in the style of the EventStreamCore dispatcher — losing a frame
// under overload is exactly the unreliability the recovery protocols are
// built for, so the bound is a feature, not a failure mode).
//
// Messages cross the wire as epicast::wire codec frames behind a small
// datagram header (magic, channel, sender id). Because real bytes are on
// real links, the runtime charges every message its codec frame size
// (SizingMode::Wire); ClusterConfig::validate() rejects a nominal cluster.
//
// Several local nodes may attach to one AsyncRuntime (in-process cluster
// tests); epicastd attaches exactly one. Peers living in other processes
// are reached through the static peer table (ClusterConfig).
#pragma once

#include <csignal>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "epicast/common/message_pool.hpp"
#include "epicast/common/rng.hpp"
#include "epicast/fault/gilbert_elliott.hpp"
#include "epicast/fault/plan.hpp"
#include "epicast/gossip/event_registry.hpp"
#include "epicast/metrics/hotpath_profiler.hpp"
#include "epicast/runtime/runtime.hpp"
#include "epicast/sim/scheduler.hpp"
#include "epicast/wire/buffer.hpp"

namespace epicast::runtime {

struct AsyncRuntimeConfig {
  /// Root of every RNG stream forked off this runtime (start jitter, gossip
  /// fan-out draws, ...). Real-socket runs are not bit-reproducible — the
  /// kernel schedules datagrams — but seeding keeps the *draw sequences*
  /// reproducible for debugging.
  std::uint64_t seed = 1;
  /// Bounded inbound frame queue shared by all local sockets; when full,
  /// newly drained datagrams are dropped and counted.
  std::size_t inbound_queue_capacity = 4096;
  /// Synthetic receive-side Bernoulli drop rate emulating the paper's link
  /// error rate ε on an otherwise-reliable localhost (control frames are
  /// exempt, as they are lossless in the simulated transport).
  double inbound_drop_rate = 0.0;
  /// Wire-level fault injection, the live analog of the simulator's
  /// FaultController: `burst` runs a Gilbert–Elliott chain per directed
  /// link (non-control frames only, as control traffic is lossless),
  /// `slow` delays inbound non-control dispatch by frame_bytes / (10 Mbit/s
  /// × factor), and `partition` blackholes k scheduled links entirely —
  /// control included, as a removed link carries nothing. `churn` specs
  /// are rejected: process death is real in daemon mode (the cluster
  /// harness --chaos schedule SIGKILLs daemons instead).
  fault::FaultPlan faults;
  /// Plan times are seconds relative to this instant on this runtime's
  /// clock (daemon mode passes the cluster's publish_start).
  double fault_origin_s = 0.0;
  /// Seed for fault draws that must agree across every process of the
  /// cluster (blackhole link choice) — the cluster-wide seed, not the
  /// per-node one.
  std::uint64_t fault_seed = 1;
  /// Maps SimTime::zero() to this absolute CLOCK_MONOTONIC instant instead
  /// of the construction instant, so every process on one host shares one
  /// timeline — cross-process publish→deliver latency becomes measurable
  /// and a restarted daemon rejoins the cluster's lifecycle mid-phase.
  /// Negative (the default) keeps the construction-time epoch.
  std::int64_t clock_epoch_ns = -1;
};

/// Where a node's socket binds / where its datagrams are sent.
struct PeerEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = bind ephemeral (in-process clusters)
};

class AsyncRuntime final : public Runtime,
                           public Clock,
                           public TimerService,
                           public Transport {
 public:
  explicit AsyncRuntime(AsyncRuntimeConfig config = {});
  ~AsyncRuntime() override;

  AsyncRuntime(const AsyncRuntime&) = delete;
  AsyncRuntime& operator=(const AsyncRuntime&) = delete;

  // -- cluster wiring (before attach) ---------------------------------------

  /// Declares node `id` at `ep`. Node ids must end up dense [0, N).
  void set_peer(NodeId id, const PeerEndpoint& ep);

  /// Declares an overlay link a—b (symmetric).
  void add_link(NodeId a, NodeId b);
  void remove_link(NodeId a, NodeId b);

  /// The endpoint a node is reachable at — after attach() this reflects the
  /// actually bound port (ephemeral binds resolve here).
  [[nodiscard]] const PeerEndpoint& peer(NodeId id) const;

  // -- Runtime --------------------------------------------------------------

  [[nodiscard]] Clock& clock() override { return *this; }
  [[nodiscard]] const Clock& clock() const override { return *this; }
  [[nodiscard]] TimerService& timers() override { return *this; }
  [[nodiscard]] Transport& transport() override { return *this; }
  Rng fork_rng() override { return root_rng_.fork(); }
  [[nodiscard]] MessagePool& pool() override { return pool_; }
  [[nodiscard]] EventRegistry& event_registry() override { return registry_; }
  [[nodiscard]] HotpathProfiler& profiler() override { return profiler_; }

  // -- Clock ----------------------------------------------------------------

  /// Monotonic time since construction, mapped onto SimTime.
  [[nodiscard]] SimTime now() const override;

  // -- TimerService ---------------------------------------------------------

  TimerHandle after(Duration delay, Callback cb) override;

  // -- Transport ------------------------------------------------------------

  /// Binds the node's UDP socket (per its PeerEndpoint) and registers the
  /// receiver. Ephemeral binds write the resolved port back to the peer
  /// table, so in-process peers find each other.
  void attach(NodeId node, TransportReceiver& receiver) override;

  void send_overlay(NodeId from, NodeId to, MessagePtr msg) override;
  void send_direct(NodeId from, NodeId to, MessagePtr msg) override;
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId node) const override;
  [[nodiscard]] bool has_link(NodeId a, NodeId b) const override;
  [[nodiscard]] std::uint32_t node_count() const override;

  // -- event loop -----------------------------------------------------------

  /// One loop turn: fire due timers, wait for socket/timerfd readiness up
  /// to `max_wait`, drain sockets into the bounded queue, dispatch queued
  /// frames, fire timers that came due meanwhile.
  void poll(Duration max_wait);

  /// Polls until `deadline` (on this runtime's clock) or request_stop().
  void run_until(SimTime deadline);
  void run_for(Duration d) { run_until(now() + d); }

  /// Makes run_until return at the next loop turn. Safe to call from a
  /// signal handler via a watched flag — see set_stop_flag().
  void request_stop() { stop_ = true; }
  [[nodiscard]] bool stop_requested() const { return stop_; }
  /// An external flag (e.g. a sig_atomic_t set by a SIGTERM handler) the
  /// loop checks every turn.
  void set_stop_flag(const volatile std::sig_atomic_t* flag) {
    stop_flag_ = flag;
  }

  // -- observability --------------------------------------------------------

  /// TransportObserver hooks fire exactly as on the simulated transport:
  /// on_send before the datagram leaves, on_loss for synthetic inbound
  /// drops, on_drop_no_link for overlay sends without a link.
  void add_observer(TransportObserver& observer) {
    observers_.push_back(&observer);
  }

  /// Receive-side tap: every accepted frame, raw bytes plus decoded
  /// message, before the receiver runs. The oracle-over-real-traffic tests
  /// feed WireRoundTripOracle::verify_bytes from here.
  using FrameObserver = std::function<void(
      NodeId from, NodeId to, bool overlay,
      std::span<const std::uint8_t> frame, const MessagePtr& decoded)>;
  void set_frame_observer(FrameObserver obs) { frame_obs_ = std::move(obs); }

  struct Stats {
    std::uint64_t datagrams_sent = 0;
    std::uint64_t datagrams_received = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t send_failures = 0;    ///< sendto errors (incl. EAGAIN)
    std::uint64_t decode_errors = 0;    ///< malformed frames discarded
    std::uint64_t queue_overflows = 0;  ///< inbound frames dropped (full)
    std::uint64_t drops_injected = 0;   ///< synthetic ε drops
    std::uint64_t drops_no_link = 0;    ///< overlay sends without a link
    std::uint64_t timers_fired = 0;
    // Wire-level fault injection (AsyncRuntimeConfig::faults):
    std::uint64_t burst_drops = 0;      ///< Gilbert–Elliott window losses
    std::uint64_t blackhole_drops = 0;  ///< scheduled blackhole losses
    std::uint64_t slowdown_delays = 0;  ///< frames delayed by slow windows
    // Liveness layer (fed by the daemon's FailureDetector via note_*):
    std::uint64_t heartbeats_sent = 0;
    std::uint64_t heartbeats_received = 0;
    std::uint64_t peers_suspected = 0;       ///< suspicion onsets
    std::uint64_t peers_confirmed_dead = 0;  ///< confirmations
    std::uint64_t restarts_observed = 0;     ///< incarnation jumps seen
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Liveness counters live in the runtime's Stats so one stats dump covers
  /// the whole transport story; the failure detector drives them from the
  /// daemon layer through these hooks.
  void note_heartbeat_sent() { ++stats_.heartbeats_sent; }
  void note_heartbeat_received() { ++stats_.heartbeats_received; }
  void note_peer_suspected() { ++stats_.peers_suspected; }
  void note_peer_confirmed_dead() { ++stats_.peers_confirmed_dead; }
  void note_restart_observed() { ++stats_.restarts_observed; }

  [[nodiscard]] const AsyncRuntimeConfig& config() const { return config_; }

 private:
  struct LocalNode;
  struct InboundFrame {
    NodeId to;
    NodeId from;
    bool overlay = false;
    std::vector<std::uint8_t> frame;  ///< codec frame (header stripped)
  };

  void send(NodeId from, NodeId to, MessagePtr msg, bool overlay);
  void drain_socket(LocalNode& node);
  void process_inbound();
  void fire_due_timers();
  /// Arms the timerfd at the earliest pending deadline (disarms when none).
  void rearm_timerfd();
  [[nodiscard]] std::int64_t mono_ns() const;

  /// Final leg of inbound dispatch (frame observer + receiver), shared by
  /// the immediate path and slow-window delayed delivery.
  void deliver_frame(const InboundFrame& f, const MessagePtr& msg);
  /// True if a fault process eats this frame (counts + observer notified).
  [[nodiscard]] bool fault_drops_frame(const InboundFrame& f,
                                       const Message& msg);
  /// Slow-window delay for an inbound frame (zero outside windows).
  [[nodiscard]] Duration slow_delay(std::size_t frame_bytes) const;
  [[nodiscard]] bool window_active(Duration start,
                                   const std::optional<Duration>& stop) const;

  AsyncRuntimeConfig config_;
  Rng root_rng_;
  Rng drop_rng_;
  MessagePool pool_;
  EventRegistry registry_;
  HotpathProfiler profiler_;

  std::int64_t start_ns_ = 0;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;

  std::vector<PeerEndpoint> peers_;             // indexed by NodeId
  /// peers_ resolved for sendto: (IPv4 address net order, port host order).
  std::vector<std::pair<std::uint32_t, std::uint16_t>> addr4_;
  std::vector<std::vector<NodeId>> links_;      // sorted adjacency
  std::vector<std::unique_ptr<LocalNode>> local_;  // indexed by NodeId

  /// Pending timers, FIFO at equal deadlines like every other backend.
  /// Keyed on raw CLOCK_MONOTONIC time rather than now(): a clock_epoch_ns
  /// later than process start makes now() negative, and the scheduler
  /// never runs behind its own zero.
  Scheduler timers_;
  std::int64_t armed_deadline_ns_ = -1;

  std::deque<InboundFrame> inbound_;
  std::vector<TransportObserver*> observers_;
  FrameObserver frame_obs_;
  wire::WireBuffer encode_buf_;
  std::vector<std::uint8_t> recv_buf_;

  bool stop_ = false;
  const volatile std::sig_atomic_t* stop_flag_ = nullptr;
  Stats stats_;

  /// Wire fault state (one entry per plan process, plan order).
  struct WireBurst {
    fault::BurstSpec spec;
    Rng rng{0};  ///< per-spec stream; channels fork from it lazily
    /// One Gilbert–Elliott chain per directed link, keyed (from<<32)|to,
    /// created in first-traffic order.
    std::unordered_map<std::uint64_t, fault::GilbertElliottChannel> channels;
  };
  struct WireBlackhole {
    fault::PartitionSpec spec;
    Rng rng{0};  ///< forked from fault_seed — identical in every process
    /// Undirected victim links, chosen deterministically from fault_seed
    /// and the static topology snapshot — every daemon of the cluster
    /// blackholes the same links.
    std::vector<std::pair<NodeId, NodeId>> victims;
    bool chosen = false;
  };
  void choose_blackhole_victims(WireBlackhole& bh);
  std::vector<WireBurst> wire_bursts_;
  std::vector<WireBlackhole> wire_blackholes_;
  /// Undirected link universe snapshotted at first attach (blackhole
  /// choices must not depend on later dynamic route repair).
  std::vector<std::pair<NodeId, NodeId>> static_links_;
};

}  // namespace epicast::runtime
