// epicast — the transport face of the runtime seam.
//
// Protocol code (Dispatcher, gossip protocols) sends and receives through
// this interface only; whether a message crosses a simulated link (the
// net::Transport built on a Simulator, which implements this interface) or
// a real UDP socket (runtime::AsyncRuntime) is invisible above the seam.
// The receiver and observer interfaces live here — in namespace epicast,
// their historical home — because both backends share them verbatim.
#pragma once

#include <cstdint>
#include <span>

#include "epicast/common/ids.hpp"
#include "epicast/net/message.hpp"

namespace epicast {

/// Where incoming messages are handed to. One receiver per node, typically
/// the node's Dispatcher.
class TransportReceiver {
 public:
  virtual ~TransportReceiver() = default;

  /// A message arrived over an overlay link from neighbour `from`.
  virtual void on_overlay_message(NodeId from, const MessagePtr& msg) = 0;

  /// A message arrived over the out-of-band channel from `from`.
  virtual void on_direct_message(NodeId from, const MessagePtr& msg) = 0;
};

/// Observes transport activity; implemented by the metrics layer and the
/// conformance-oracle suite.
class TransportObserver {
 public:
  virtual ~TransportObserver() = default;

  /// True when the observer may be invoked inline from a worker thread
  /// while the sharded engine executes a parallel window. That requires the
  /// hooks to only read state owned by the sending node's lane and to keep
  /// any own mutable state race-free (atomics or lane-partitioned). The
  /// default (false) makes the simulated transport defer the callback to
  /// the window barrier, where it replays on the master thread in the exact
  /// serial observation order — the safe choice for anything with plain
  /// counters or cross-node containers.
  [[nodiscard]] virtual bool concurrent_safe() const { return false; }

  virtual void on_send(NodeId from, NodeId to, const Message& msg,
                       bool overlay) = 0;
  virtual void on_loss(NodeId from, NodeId to, const Message& msg,
                       bool overlay) = 0;
  /// A send attempted over a missing overlay link (stale route), or whose
  /// link broke mid-flight.
  virtual void on_drop_no_link(NodeId from, NodeId to,
                               const Message& msg) = 0;
};

}  // namespace epicast

namespace epicast::runtime {

/// The two-channel message-passing contract of the paper's model (§III-B):
/// the overlay channel follows the dispatching-tree links; the direct
/// channel is out-of-band unicast for retransmission requests/replies.
/// Sends are asynchronous and unreliable on both channels; delivery, when
/// it happens, invokes the destination's attached TransportReceiver.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Registers the receiver for `node`. Must be called before traffic
  /// addressed to `node` arrives.
  virtual void attach(NodeId node, TransportReceiver& receiver) = 0;

  virtual void send_overlay(NodeId from, NodeId to, MessagePtr msg) = 0;
  virtual void send_direct(NodeId from, NodeId to, MessagePtr msg) = 0;

  /// Current overlay neighbours of `node`. The span is invalidated by
  /// topology mutations.
  [[nodiscard]] virtual std::span<const NodeId> neighbors(
      NodeId node) const = 0;

  /// True iff the overlay currently has a link a—b.
  [[nodiscard]] virtual bool has_link(NodeId a, NodeId b) const = 0;

  /// Number of nodes in the overlay (NodeId values are dense in
  /// [0, node_count)).
  [[nodiscard]] virtual std::uint32_t node_count() const = 0;
};

}  // namespace epicast::runtime
