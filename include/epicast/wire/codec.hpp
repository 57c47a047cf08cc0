// epicast — byte-accurate serialization of every message the transport can
// carry.
//
// Frame layout (little-endian, varints are canonical LEB128):
//
//   ┌──────────┬─────────┬──────┬────────────────────────────┐
//   │ len: u32 │ ver: u8 │ kind │ payload (len − 2 bytes)    │
//   └──────────┴─────────┴──────┴────────────────────────────┘
//        │
//        └── number of bytes after the length field (version + kind +
//            payload), so a stream reader can frame before it parses.
//
// One frame per message; the payload encodings are documented per kind in
// DESIGN.md ("Wire format"). Event payload content is not modelled by the
// simulator, so the codec carries `payload_bytes` of zeros — frames have
// exactly the size a real transport would put on the wire.
//
// decode() is strict: truncated, corrupt, non-canonical, unknown-version
// and unknown-kind frames yield a typed DecodeError (wire/error.hpp), never
// UB and never a partially initialized message. Decoded gossip messages
// report the frame size as their nominal size, so re-sending a decoded
// message charges its true wire cost in either sizing mode.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "epicast/net/message.hpp"
#include "epicast/wire/buffer.hpp"
#include "epicast/wire/error.hpp"

namespace epicast::wire {

/// Discriminates frames on the wire. Values are part of the format: append
/// new kinds, never renumber (versioning rule, see DESIGN.md).
enum class FrameKind : std::uint8_t {
  Event = 0,
  Subscribe = 1,
  PushDigest = 2,
  SubscriberPullDigest = 3,
  PublisherPullDigest = 4,
  RandomPullDigest = 5,
  RecoveryRequest = 6,
  RecoveryReply = 7,
  Heartbeat = 8,
};

[[nodiscard]] const char* to_string(FrameKind k);

/// Result of Codec::decode — a message or a typed error.
class Decoded {
 public:
  /*implicit*/ Decoded(MessagePtr msg) : msg_(std::move(msg)) {}
  /*implicit*/ Decoded(DecodeError err) : err_(err) {}

  [[nodiscard]] bool ok() const { return msg_ != nullptr; }
  [[nodiscard]] const MessagePtr& message() const { return msg_; }
  [[nodiscard]] DecodeError error() const { return err_; }

 private:
  MessagePtr msg_;
  DecodeError err_ = DecodeError::TruncatedHeader;
};

class Codec {
 public:
  /// Format version emitted by encode() and required by decode().
  static constexpr std::uint8_t kVersion = 1;
  /// Length prefix + version byte + kind byte.
  static constexpr std::size_t kHeaderBytes = 6;
  /// Hard ceiling on the length prefix — no legitimate message comes close,
  /// and it bounds what a corrupt frame can make a stream reader buffer.
  static constexpr std::uint32_t kMaxFrameLen = 64u * 1024u * 1024u;

  /// Appends one frame for `msg` to `out` (which is not cleared: callers
  /// batching frames into one buffer concatenate naturally).
  static void encode(const Message& msg, WireBuffer& out);

  /// Exact frame size encode() would produce, computed by running the same
  /// payload encoder against a byte counter instead of a buffer — this is
  /// Message::wire_size_bytes()'s backend and the hot path of
  /// SizingMode::Wire. A round-trip test pins it to encode(). Messages the
  /// codec has no frame for (foreign subclasses, e.g. the pure-gossip
  /// comparator's) fall back to their nominal size_bytes(), so
  /// SizingMode::Wire stays total over the whole Message hierarchy.
  [[nodiscard]] static std::size_t encoded_size(const Message& msg);

  /// Decodes exactly one frame spanning the whole of `frame`.
  [[nodiscard]] static Decoded decode(std::span<const std::uint8_t> frame);

  /// The kind byte `msg` encodes to; nullopt for Message subclasses the
  /// codec has no frame format for.
  [[nodiscard]] static std::optional<FrameKind> try_kind_of(
      const Message& msg);

  /// As try_kind_of, but the message must be encodable (asserts).
  [[nodiscard]] static FrameKind kind_of(const Message& msg);
};

}  // namespace epicast::wire
