// epicast — physical behaviour of one overlay hop.
//
// Each overlay link behaves as a full-duplex 10 Mbit/s Ethernet-like channel
// (paper §IV-A): per-direction FIFO serialization (a message must wait for
// the previous one to finish transmitting), a fixed propagation delay, and
// independent Bernoulli loss with rate ε applied per message.
#pragma once

#include <cstdint>
#include <vector>

#include "epicast/common/flat_hash_map.hpp"
#include "epicast/common/ids.hpp"
#include "epicast/common/rng.hpp"
#include "epicast/sim/time.hpp"

namespace epicast {

struct LinkParams {
  double bandwidth_bps = 10e6;                       ///< 10 Mbit/s default
  Duration propagation = Duration::micros(50);       ///< per-hop latency
  double loss_rate = 0.0;                            ///< ε, per message
};

class LinkModel {
 public:
  /// Forks one loss-trial stream per sender node off `base` (in node-id
  /// order), and keeps the per-direction queue state partitioned by sender
  /// too. The seed guards pin this split: one shared stream would reorder
  /// the draws.
  LinkModel(LinkParams params, Rng base, std::uint32_t nodes);

  struct Outcome {
    Duration delay;  ///< queueing + transmission + propagation
    bool lost;       ///< message corrupted in transit
  };

  /// Accounts for transmitting `bytes` from `from` to `to` starting no
  /// earlier than `now`, and draws the loss trial. `lossless` suppresses the
  /// loss draw (reliable control channel) but still occupies the link.
  Outcome transmit(NodeId from, NodeId to, std::size_t bytes, SimTime now,
                   bool lossless);

  /// Transmission time of `bytes` at the current effective bandwidth.
  [[nodiscard]] Duration serialization_time(std::size_t bytes) const;

  [[nodiscard]] const LinkParams& params() const { return params_; }

  /// Scales the effective bandwidth of every link to `scale` × the
  /// configured rate (FaultController's timed degradation windows).
  /// Must be in (0, 1]; 1.0 restores nominal behaviour.
  void set_bandwidth_scale(double scale);
  [[nodiscard]] double bandwidth_scale() const { return bandwidth_scale_; }

  /// Forgets per-link queue state (e.g., between scenario phases).
  void reset();

 private:
  LinkParams params_;
  double bandwidth_scale_ = 1.0;
  /// One loss-trial stream per sender, forked in node-id order.
  std::vector<Rng> rngs_;
  /// Per sender: destination node -> when that direction's sender side
  /// becomes free, in the common flat table (one probe per send), indexed
  /// by the sending node.
  std::vector<FlatHashMap<NodeId, SimTime, NodeIdKey>> next_free_;
};

}  // namespace epicast
