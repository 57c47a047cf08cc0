// epicast — strongly-typed identifiers.
//
// Raw integers for node ids, patterns, and sequence numbers invite silent
// transposition bugs (Core Guidelines I.4: make interfaces precisely and
// strongly typed). Each id is a distinct value type with explicit
// construction and an `value()` accessor; arithmetic is only provided where
// it is meaningful (sequence numbers).
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <limits>

namespace epicast {

/// Identifies one dispatcher (a dispatching server) in the overlay network.
/// Dense, 0-based: valid ids are [0, N) for an N-node network.
class NodeId {
 public:
  constexpr NodeId() = default;
  constexpr explicit NodeId(std::uint32_t v) : v_(v) {}

  [[nodiscard]] constexpr std::uint32_t value() const { return v_; }
  [[nodiscard]] constexpr bool valid() const { return v_ != kInvalid; }

  friend constexpr auto operator<=>(NodeId, NodeId) = default;

  /// Sentinel for "no node" (e.g., the origin of a locally published event).
  static constexpr NodeId invalid() { return NodeId{kInvalid}; }

 private:
  static constexpr std::uint32_t kInvalid =
      std::numeric_limits<std::uint32_t>::max();
  std::uint32_t v_ = kInvalid;
};

/// A content pattern. The paper models an event pattern as a single number
/// drawn from the universe [0, Π); an event matches a subscription iff the
/// event's number sequence contains the subscribed number.
class Pattern {
 public:
  constexpr Pattern() = default;
  constexpr explicit Pattern(std::uint32_t v) : v_(v) {}

  [[nodiscard]] constexpr std::uint32_t value() const { return v_; }

  friend constexpr auto operator<=>(Pattern, Pattern) = default;

 private:
  std::uint32_t v_ = 0;
};

/// Per-(source, pattern) sequence number, incremented at the source each
/// time an event matching that pattern is published (paper §III-B, Pull).
class SeqNo {
 public:
  constexpr SeqNo() = default;
  constexpr explicit SeqNo(std::uint64_t v) : v_(v) {}

  [[nodiscard]] constexpr std::uint64_t value() const { return v_; }
  [[nodiscard]] constexpr SeqNo next() const { return SeqNo{v_ + 1}; }

  friend constexpr auto operator<=>(SeqNo, SeqNo) = default;

 private:
  std::uint64_t v_ = 0;
};

/// Globally unique event identifier: the pair (source, per-source counter)
/// — exactly the scheme of paper footnote 3.
struct EventId {
  NodeId source;
  std::uint64_t source_seq = 0;

  friend constexpr auto operator<=>(const EventId&, const EventId&) = default;
};

/// Packs one (source, pattern) stream into a 64-bit key (loss-detector
/// watermarks and stream marks).
[[nodiscard]] constexpr std::uint64_t stream_key(NodeId source,
                                                 Pattern pattern) {
  return (static_cast<std::uint64_t>(source.value()) << 32) | pattern.value();
}

}  // namespace epicast

template <>
struct std::hash<epicast::NodeId> {
  std::size_t operator()(epicast::NodeId id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value());
  }
};

template <>
struct std::hash<epicast::Pattern> {
  std::size_t operator()(epicast::Pattern p) const noexcept {
    return std::hash<std::uint32_t>{}(p.value());
  }
};

template <>
struct std::hash<epicast::EventId> {
  std::size_t operator()(const epicast::EventId& id) const noexcept {
    // Splitmix-style combine; source ids are dense so the shift spreads them.
    std::uint64_t x =
        (static_cast<std::uint64_t>(id.source.value()) << 40) ^ id.source_seq;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    return static_cast<std::size_t>(x);
  }
};
