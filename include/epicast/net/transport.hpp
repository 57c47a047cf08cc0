// epicast — message delivery over the overlay and out-of-band channels.
//
// Two channels, mirroring the paper's model (§III-B):
//
//  * the **overlay channel** carries event, control, and gossip-digest
//    traffic hop-by-hop along tree links, subject to the link model
//    (serialization, propagation, Bernoulli loss ε). A send over a link that
//    no longer exists — stale routes during a reconfiguration — is dropped,
//    as is a message in flight when its link breaks.
//
//  * the **direct channel** is the out-of-band unicast transport ("not
//    necessarily reliable, e.g. UDP-based") used for retransmission
//    requests and replies. It is independent of the overlay topology and
//    has its own latency band and loss rate.
//
// Control traffic (subscriptions) is lossless, modelling the TCP-backed
// control connections real dispatching networks use.
//
// The class implements runtime::Transport and binds itself to the
// Simulator it is built on, so protocol code running on that Simulator (as
// its runtime::Runtime) sends through it directly.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "epicast/common/env.hpp"
#include "epicast/common/ids.hpp"
#include "epicast/net/link_model.hpp"
#include "epicast/net/message.hpp"
#include "epicast/net/topology.hpp"
#include "epicast/runtime/transport.hpp"
#include "epicast/sim/simulator.hpp"

namespace epicast {

struct TransportConfig {
  LinkParams link;                    ///< overlay link behaviour
  Duration direct_latency_min = Duration::micros(500);
  Duration direct_latency_max = Duration::millis(2);
  double direct_loss_rate = 0.0;      ///< out-of-band loss
  /// Which message size the link model charges: the configured nominal
  /// constants (paper §IV-E accounting, the default) or the codec-computed
  /// wire frame size. Follows EPICAST_SIZING unless overridden.
  SizingMode sizing = env::settings().sizing;
};

class Transport final : public runtime::Transport {
 public:
  /// The transport keeps references to `sim` and `topology`; both must
  /// outlive it. Binds itself as `sim.transport()` until destroyed.
  Transport(Simulator& sim, Topology& topology, TransportConfig config);
  ~Transport() override;

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Registers the receiver for `node`. Must be called for every node
  /// before traffic addressed to it arrives.
  void attach(NodeId node, TransportReceiver& receiver) override;

  /// Registers an additional observer (metrics, tracing); all registered
  /// observers see every send/loss/drop, in registration order.
  void add_observer(TransportObserver& observer) {
    observers_.push_back(&observer);
  }

  /// Deterministic fault injection (FaultController, tests, failure-injection
  /// examples): return false to drop that send. Filters stack — every
  /// registered filter is consulted in registration order and any one of them
  /// may drop. Evaluated before the stochastic loss draw; dropped sends are
  /// reported to the observer as losses. `overlay` distinguishes the two
  /// channels (true = overlay link, false = out-of-band).
  using FaultFilter = std::function<bool(NodeId from, NodeId to,
                                         const Message& msg, bool overlay)>;
  void add_fault_filter(FaultFilter filter) {
    faults_.push_back(std::move(filter));
  }

  /// Sends over the overlay link (from → to). If the link does not exist
  /// the message is dropped (stale-route drop).
  void send_overlay(NodeId from, NodeId to, MessagePtr msg) override;

  /// Sends over the out-of-band channel. `from == to` is a programming
  /// error — recovery never gossips with itself.
  void send_direct(NodeId from, NodeId to, MessagePtr msg) override;

  [[nodiscard]] std::span<const NodeId> neighbors(
      NodeId node) const override {
    return topology_.neighbors(node);
  }
  [[nodiscard]] bool has_link(NodeId a, NodeId b) const override {
    return topology_.has_link(a, b);
  }
  [[nodiscard]] std::uint32_t node_count() const override {
    return topology_.node_count();
  }

  [[nodiscard]] const TransportConfig& config() const { return config_; }
  [[nodiscard]] Topology& topology() { return topology_; }
  [[nodiscard]] Simulator& simulator() { return sim_; }
  /// Link-behaviour knobs (FaultController's bandwidth degradation).
  [[nodiscard]] LinkModel& link_model() { return link_model_; }

 private:
  TransportReceiver& receiver_for(NodeId node) const;
  bool faults_allow(NodeId from, NodeId to, const Message& msg,
                    bool overlay) const;
  /// Observer fan-out, in registration order.
  void notify_send(NodeId from, NodeId to, const Message& msg, bool overlay);
  void notify_loss(NodeId from, NodeId to, const Message& msg, bool overlay);
  void notify_drop_no_link(NodeId from, NodeId to, const Message& msg);

  Simulator& sim_;
  Topology& topology_;
  TransportConfig config_;
  LinkModel link_model_;
  /// One direct-channel stream (loss + latency draws) per sender node. The
  /// seed guards pin this split: one shared stream would reorder the draws.
  std::vector<Rng> direct_rngs_;
  std::vector<TransportReceiver*> receivers_;
  std::vector<TransportObserver*> observers_;
  std::vector<FaultFilter> faults_;
};

}  // namespace epicast
