#include "epicast/net/transport.hpp"

#include <utility>

#include "epicast/common/assert.hpp"
#include "epicast/metrics/hotpath_profiler.hpp"

namespace epicast {
namespace {

std::vector<Rng> fork_streams(Rng base, std::uint32_t n) {
  std::vector<Rng> streams;
  streams.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) streams.push_back(base.fork());
  return streams;
}

}  // namespace

Transport::Transport(Simulator& sim, Topology& topology,
                     TransportConfig config)
    : sim_(sim),
      topology_(topology),
      config_(config),
      link_model_(config.link, sim.fork_rng(), topology.node_count()),
      direct_rngs_(fork_streams(sim.fork_rng(), topology.node_count())),
      receivers_(topology.node_count(), nullptr) {
  EPICAST_ASSERT(config_.direct_latency_min <= config_.direct_latency_max);
  EPICAST_ASSERT(config_.direct_loss_rate >= 0.0 &&
                 config_.direct_loss_rate <= 1.0);
  sim_.bind_transport(this);
}

Transport::~Transport() { sim_.bind_transport(nullptr); }

void Transport::attach(NodeId node, TransportReceiver& receiver) {
  EPICAST_ASSERT(node.value() < receivers_.size());
  EPICAST_ASSERT_MSG(receivers_[node.value()] == nullptr,
                     "node already has a receiver");
  receivers_[node.value()] = &receiver;
}

TransportReceiver& Transport::receiver_for(NodeId node) const {
  EPICAST_ASSERT(node.value() < receivers_.size());
  TransportReceiver* r = receivers_[node.value()];
  EPICAST_ASSERT_MSG(r != nullptr, "no receiver attached for node");
  return *r;
}

bool Transport::faults_allow(NodeId from, NodeId to, const Message& msg,
                             bool overlay) const {
  for (const FaultFilter& f : faults_) {
    if (!f(from, to, msg, overlay)) return false;
  }
  return true;
}

void Transport::notify_send(NodeId from, NodeId to, const Message& msg,
                            bool overlay) {
  for (TransportObserver* o : observers_) o->on_send(from, to, msg, overlay);
}

void Transport::notify_loss(NodeId from, NodeId to, const Message& msg,
                            bool overlay) {
  for (TransportObserver* o : observers_) o->on_loss(from, to, msg, overlay);
}

void Transport::notify_drop_no_link(NodeId from, NodeId to,
                                    const Message& msg) {
  for (TransportObserver* o : observers_) o->on_drop_no_link(from, to, msg);
}

void Transport::send_overlay(NodeId from, NodeId to, MessagePtr msg) {
  HotpathProfiler::Scope scope(sim_.profiler(), HotPhase::TransportOverlay);
  EPICAST_ASSERT(msg != nullptr);
  EPICAST_ASSERT(from != to);
  notify_send(from, to, *msg, /*overlay=*/true);

  if (!topology_.has_link(from, to)) {
    // Stale route: the forwarding table still points at a broken link.
    notify_drop_no_link(from, to, *msg);
    return;
  }

  if (!faults_allow(from, to, *msg, /*overlay=*/true)) {
    notify_loss(from, to, *msg, /*overlay=*/true);
    return;
  }

  const bool lossless = msg->message_class() == MessageClass::Control;
  // Serialization delay is charged from the selected sizing mode: nominal
  // constants reproduce the paper bit-identically, wire mode occupies the
  // link for exactly the frame the codec would put on it.
  const LinkModel::Outcome tx = link_model_.transmit(
      from, to, sized_bytes(*msg, config_.sizing),
      sim_.now(), lossless);
  if (tx.lost) {
    notify_loss(from, to, *msg, /*overlay=*/true);
    return;
  }

  // The topology version guards in-flight messages: if the link breaks (or
  // is replaced) while the message is on the wire, it never arrives.
  const std::uint64_t version = topology_.version();
  sim_.after(tx.delay, [this, from, to, msg = std::move(msg), version]() {
    if (topology_.version() != version && !topology_.has_link(from, to)) {
      notify_drop_no_link(from, to, *msg);
      return;
    }
    receiver_for(to).on_overlay_message(from, msg);
  });
}

void Transport::send_direct(NodeId from, NodeId to, MessagePtr msg) {
  HotpathProfiler::Scope scope(sim_.profiler(), HotPhase::TransportDirect);
  EPICAST_ASSERT(msg != nullptr);
  EPICAST_ASSERT_MSG(from != to, "direct send to self");
  notify_send(from, to, *msg, /*overlay=*/false);

  if (!faults_allow(from, to, *msg, /*overlay=*/false)) {
    notify_loss(from, to, *msg, /*overlay=*/false);
    return;
  }

  Rng& rng = direct_rngs_[from.value()];
  if (rng.chance(config_.direct_loss_rate)) {
    notify_loss(from, to, *msg, /*overlay=*/false);
    return;
  }
  const Duration latency = Duration::seconds(
      rng.uniform(config_.direct_latency_min.to_seconds(),
                  config_.direct_latency_max.to_seconds()));
  sim_.after(latency, [this, from, to, msg = std::move(msg)]() {
    receiver_for(to).on_direct_message(from, msg);
  });
}

}  // namespace epicast
