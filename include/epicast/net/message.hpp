// epicast — wire message abstraction.
//
// The transport layer is agnostic of message content: it sees only a class
// tag (used for loss policy and accounting) and a size (used for
// serialization delay). Concrete message types live in the pubsub and gossip
// modules and derive from `Message`.
//
// Messages are immutable once sent and shared by pointer, so a fan-out of an
// event to many neighbours costs no copies.
//
// Two sizes coexist per message (SizingMode):
//   * nominal — the configured constant the paper's equal-size overhead
//     accounting assumes (§IV-E); the default, keeps every figure
//     bit-identical to the original evaluation;
//   * wire — the exact byte count of the message's serialized frame,
//     computed by epicast::wire::Codec (see wire/codec.hpp), for
//     byte-accurate link occupancy and traffic accounting.
#pragma once

#include <cstddef>
#include <memory>

namespace epicast {

/// Traffic classes, used for (a) per-class accounting in the paper's
/// overhead figures and (b) loss policy (control traffic may be configured
/// reliable, modelling a TCP-backed control channel).
enum class MessageClass {
  Event,          ///< published event propagating along subscription routes
  Control,        ///< subscribe / unsubscribe propagation
  GossipDigest,   ///< a gossip round's digest travelling the tree
  GossipRequest,  ///< out-of-band retransmission request
  GossipReply,    ///< out-of-band retransmitted events
};

[[nodiscard]] constexpr bool is_gossip(MessageClass c) {
  return c == MessageClass::GossipDigest || c == MessageClass::GossipRequest ||
         c == MessageClass::GossipReply;
}

[[nodiscard]] const char* to_string(MessageClass c);

/// Which size the link model charges and the metrics layer accounts.
enum class SizingMode {
  Nominal,  ///< configured constants — the paper's assumption (default)
  Wire,     ///< codec-computed frame bytes — byte-accurate
};

[[nodiscard]] const char* to_string(SizingMode m);

/// Interprets an EPICAST_SIZING value: unset (null) or empty selects
/// Nominal, "wire" selects Wire, and any other spelling aborts with a
/// message naming the variable — a mistyped setting must not silently run
/// a suite in the other mode.
[[nodiscard]] SizingMode sizing_mode_from_env(const char* value);

/// Process-wide default sizing mode: sizing_mode_from_env() of the
/// EPICAST_SIZING environment variable, read once on the first call. Lets
/// the whole test/bench suite run in wire mode without touching every
/// config literal (the CI wire-sizing job does exactly that).
[[nodiscard]] SizingMode default_sizing_mode();

/// Base class of everything the transport can carry.
class Message {
 public:
  virtual ~Message() = default;

  /// Traffic class for accounting and loss policy.
  [[nodiscard]] virtual MessageClass message_class() const = 0;

  /// Nominal serialized size used to compute link occupancy. The paper
  /// assumes event and gossip messages have equal size (§IV-E); the
  /// scenario layer follows suit but the model supports any size.
  [[nodiscard]] virtual std::size_t size_bytes() const = 0;

  /// Exact size of this message's wire frame (epicast::wire::Codec).
  /// Computed on first call and cached — messages are immutable, and one
  /// message never crosses scenario threads.
  [[nodiscard]] std::size_t wire_size_bytes() const;

 private:
  mutable std::size_t wire_size_cache_ = 0;  // 0 = not yet computed
};

/// The size `mode` charges for `msg` — nominal constant or codec frame size.
[[nodiscard]] inline std::size_t sized_bytes(const Message& msg,
                                             SizingMode mode) {
  return mode == SizingMode::Wire ? msg.wire_size_bytes() : msg.size_bytes();
}

using MessagePtr = std::shared_ptr<const Message>;

}  // namespace epicast
