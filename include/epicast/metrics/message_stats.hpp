// epicast — traffic accounting for the paper's overhead figures (§IV-E).
//
// Counts every send per message class, per node. "Gossip messages" are all
// recovery-layer sends (digest hops + requests + replies); "event messages"
// are per-hop event forwards — exactly the two quantities whose ratio the
// paper plots in Fig. 9. Snapshots allow measuring only inside the
// measurement window (warmup excluded).
//
// Alongside message counts, bytes are accounted per class using the
// configured SizingMode: nominal (the paper's equal-size assumption) or
// wire (codec-computed frame sizes) — the latter makes the Fig. 9/10
// overhead results byte-accurate instead of estimated.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "epicast/net/transport.hpp"

namespace epicast {

class MessageStats final : public TransportObserver {
 public:
  static constexpr std::size_t kClassCount = 5;

  /// `sizing` selects the per-message byte figure the byte counters use;
  /// message counts are mode-independent.
  explicit MessageStats(std::uint32_t node_count,
                        SizingMode sizing = env::settings().sizing);

  void on_send(NodeId from, NodeId to, const Message& msg,
               bool overlay) override;
  void on_loss(NodeId from, NodeId to, const Message& msg,
               bool overlay) override;
  void on_drop_no_link(NodeId from, NodeId to, const Message& msg) override;

  /// Aggregate counters at one instant; subtract two snapshots to get the
  /// traffic of a window.
  struct Snapshot {
    std::array<std::uint64_t, kClassCount> sends{};
    std::array<std::uint64_t, kClassCount> losses{};
    /// Bytes sent per class, in the configured SizingMode's units.
    std::array<std::uint64_t, kClassCount> send_bytes{};
    std::uint64_t drops_no_link = 0;
    std::uint64_t overlay_sends = 0;
    std::uint64_t direct_sends = 0;

    [[nodiscard]] std::uint64_t sends_of(MessageClass c) const {
      return sends[static_cast<std::size_t>(c)];
    }
    [[nodiscard]] std::uint64_t losses_of(MessageClass c) const {
      return losses[static_cast<std::size_t>(c)];
    }
    [[nodiscard]] std::uint64_t bytes_of(MessageClass c) const {
      return send_bytes[static_cast<std::size_t>(c)];
    }
    /// Digest + request + reply sends.
    [[nodiscard]] std::uint64_t gossip_sends() const;
    [[nodiscard]] std::uint64_t event_sends() const {
      return sends_of(MessageClass::Event);
    }
    /// Digest + request + reply bytes.
    [[nodiscard]] std::uint64_t gossip_bytes() const;
    [[nodiscard]] std::uint64_t event_bytes() const {
      return bytes_of(MessageClass::Event);
    }
    /// Gossip sends ÷ event sends (0 if no events flowed).
    [[nodiscard]] double gossip_event_ratio() const;
    /// Gossip bytes ÷ event bytes (0 if no event bytes flowed).
    [[nodiscard]] double gossip_event_byte_ratio() const;

    friend Snapshot operator-(Snapshot a, const Snapshot& b);
  };

  [[nodiscard]] Snapshot snapshot() const { return totals_; }
  [[nodiscard]] SizingMode sizing() const { return sizing_; }

  /// Gossip sends originated or forwarded by one node (all classes).
  [[nodiscard]] std::uint64_t gossip_sends_by(NodeId node) const;
  [[nodiscard]] std::uint64_t event_sends_by(NodeId node) const;

 private:
  SizingMode sizing_;
  Snapshot totals_;
  /// per node × class
  std::vector<std::array<std::uint64_t, kClassCount>> by_node_;
};

}  // namespace epicast
