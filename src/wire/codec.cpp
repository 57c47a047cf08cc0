#include "epicast/wire/codec.hpp"

#include <utility>
#include <vector>

#include "epicast/common/assert.hpp"
#include "epicast/gossip/messages.hpp"
#include "epicast/pubsub/event.hpp"
#include "epicast/pubsub/messages.hpp"

namespace epicast::wire {
namespace {

// -- field encoders -----------------------------------------------------------
// All multi-byte fields are canonical varints; see codec.hpp for the frame
// header and DESIGN.md for the per-kind payload layouts. Each encoder writes
// to a WireBuffer, or to a ByteCounter when Codec::encoded_size only needs
// the length, so every layout is written once.

/// A sink with WireBuffer's put_* interface that only counts the bytes.
class ByteCounter {
 public:
  [[nodiscard]] std::size_t size() const { return n_; }

  void put_u8(std::uint8_t) { ++n_; }
  void put_varint(std::uint64_t v) { n_ += varint_size(v); }
  void put_zigzag(std::int64_t v) { n_ += varint_size(zigzag(v)); }
  void put_zero_bytes(std::size_t n) { n_ += n; }

 private:
  std::size_t n_ = 0;
};

template <typename Sink>
void put_node(Sink& out, NodeId n) {
  out.put_varint(n.value());
}

template <typename Sink>
void put_pattern(Sink& out, Pattern p) {
  out.put_varint(p.value());
}

template <typename Sink>
void put_event_id(Sink& out, const EventId& id) {
  put_node(out, id.source);
  out.put_varint(id.source_seq);
}

template <typename Sink>
void put_lost_entry(Sink& out, const LostEntryInfo& e) {
  put_node(out, e.source);
  put_pattern(out, e.pattern);
  out.put_varint(e.seq.value());
}

template <typename Sink>
void put_node_list(Sink& out, const std::vector<NodeId>& nodes) {
  out.put_varint(nodes.size());
  for (NodeId n : nodes) put_node(out, n);
}

/// Event record: id, publication instant, payload size, matched patterns,
/// then `payload_bytes` of content. The simulator models payload as a size
/// only, so the content bytes are zeros — the frame still has the exact
/// length a real transport would serialize.
template <typename Sink>
void put_event(Sink& out, const EventData& ev) {
  put_event_id(out, ev.id());
  out.put_zigzag(ev.published_at().nanos_since_start());
  out.put_varint(ev.payload_bytes());
  out.put_varint(ev.patterns().size());
  for (const PatternSeq& ps : ev.patterns()) {
    put_pattern(out, ps.pattern);
    out.put_varint(ps.seq.value());
  }
  out.put_zero_bytes(ev.payload_bytes());
}

// -- field decoders -----------------------------------------------------------

NodeId read_node(WireReader& in) { return NodeId{in.varint32()}; }
Pattern read_pattern(WireReader& in) { return Pattern{in.varint32()}; }

EventId read_event_id(WireReader& in) {
  const NodeId source = read_node(in);
  const std::uint64_t seq = in.varint();
  return EventId{source, seq};
}

LostEntryInfo read_lost_entry(WireReader& in) {
  const NodeId source = read_node(in);
  const Pattern pattern = read_pattern(in);
  const SeqNo seq{in.varint()};
  return LostEntryInfo{source, pattern, seq};
}

std::vector<NodeId> read_node_list(WireReader& in) {
  const std::size_t n = in.count(/*min_element_bytes=*/1);
  std::vector<NodeId> nodes;
  nodes.reserve(n);
  for (std::size_t i = 0; i < n && in.ok(); ++i) nodes.push_back(read_node(in));
  return nodes;
}

std::vector<LostEntryInfo> read_lost_list(WireReader& in) {
  const std::size_t n = in.count(/*min_element_bytes=*/3);
  std::vector<LostEntryInfo> wanted;
  wanted.reserve(n);
  for (std::size_t i = 0; i < n && in.ok(); ++i) {
    wanted.push_back(read_lost_entry(in));
  }
  return wanted;
}

std::vector<EventId> read_event_id_list(WireReader& in) {
  const std::size_t n = in.count(/*min_element_bytes=*/2);
  std::vector<EventId> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n && in.ok(); ++i) {
    ids.push_back(read_event_id(in));
  }
  return ids;
}

/// Strict: ≥ 1 pattern, patterns strictly increasing (the canonical order —
/// EventData would abort on duplicates, so the codec must refuse first).
EventPtr read_event(WireReader& in) {
  const EventId id = read_event_id(in);
  const SimTime published_at =
      SimTime::zero() + Duration::nanos(in.zigzag64());
  const std::uint64_t payload = in.varint();
  const std::size_t n_patterns = in.count(/*min_element_bytes=*/2);
  if (in.ok() && n_patterns == 0) {
    in.fail(DecodeError::ValueOutOfRange);
    return nullptr;
  }
  std::vector<PatternSeq> patterns;
  patterns.reserve(n_patterns);
  for (std::size_t i = 0; i < n_patterns && in.ok(); ++i) {
    const Pattern p = read_pattern(in);
    const SeqNo seq{in.varint()};
    if (in.ok() && !patterns.empty() && patterns.back().pattern >= p) {
      in.fail(DecodeError::ValueOutOfRange);
      return nullptr;
    }
    patterns.push_back(PatternSeq{p, seq});
  }
  in.skip(static_cast<std::size_t>(payload));  // opaque payload content
  if (!in.ok()) return nullptr;
  return std::make_shared<EventData>(id, std::move(patterns),
                                     static_cast<std::size_t>(payload),
                                     published_at);
}

// -- payload encoders per kind ------------------------------------------------

template <typename Sink>
void encode_payload(const Message& msg, FrameKind kind, Sink& out) {
  switch (kind) {
    case FrameKind::Event: {
      const auto& m = static_cast<const EventMessage&>(msg);
      put_event(out, *m.event());
      put_node_list(out, m.route());
      return;
    }
    case FrameKind::Subscribe: {
      const auto& m = static_cast<const SubscribeMessage&>(msg);
      put_pattern(out, m.pattern());
      out.put_u8(m.is_subscribe() ? 1 : 0);
      return;
    }
    case FrameKind::PushDigest: {
      const auto& m = static_cast<const PushDigestMessage&>(msg);
      put_node(out, m.gossiper());
      put_pattern(out, m.pattern());
      out.put_varint(m.hops());
      out.put_varint(m.ids().size());
      for (const EventId& id : m.ids()) put_event_id(out, id);
      return;
    }
    case FrameKind::SubscriberPullDigest: {
      const auto& m = static_cast<const SubscriberPullDigestMessage&>(msg);
      put_node(out, m.gossiper());
      put_pattern(out, m.pattern());
      out.put_varint(m.hops());
      out.put_varint(m.wanted().size());
      for (const LostEntryInfo& e : m.wanted()) put_lost_entry(out, e);
      return;
    }
    case FrameKind::PublisherPullDigest: {
      const auto& m = static_cast<const PublisherPullDigestMessage&>(msg);
      put_node(out, m.gossiper());
      put_node(out, m.source());
      out.put_varint(m.wanted().size());
      for (const LostEntryInfo& e : m.wanted()) put_lost_entry(out, e);
      put_node_list(out, m.route());
      return;
    }
    case FrameKind::RandomPullDigest: {
      const auto& m = static_cast<const RandomPullDigestMessage&>(msg);
      put_node(out, m.gossiper());
      out.put_varint(m.hops());
      out.put_varint(m.wanted().size());
      for (const LostEntryInfo& e : m.wanted()) put_lost_entry(out, e);
      return;
    }
    case FrameKind::RecoveryRequest: {
      const auto& m = static_cast<const RecoveryRequestMessage&>(msg);
      put_node(out, m.gossiper());
      out.put_varint(m.ids().size());
      for (const EventId& id : m.ids()) put_event_id(out, id);
      return;
    }
    case FrameKind::RecoveryReply: {
      const auto& m = static_cast<const RecoveryReplyMessage&>(msg);
      put_node(out, m.gossiper());
      out.put_varint(m.events().size());
      for (const EventPtr& ev : m.events()) put_event(out, *ev);
      return;
    }
    case FrameKind::Heartbeat: {
      const auto& m = static_cast<const HeartbeatMessage&>(msg);
      out.put_varint(m.incarnation());
      out.put_varint(m.marks().size());
      for (const StreamMark& sm : m.marks()) {
        put_node(out, sm.source);
        put_pattern(out, sm.pattern);
        out.put_varint(sm.seq.value());
      }
      return;
    }
  }
  EPICAST_UNREACHABLE("unknown frame kind");
}

// -- payload decoders per kind ------------------------------------------------

/// `frame_bytes` is the whole frame's size: decoded gossip messages report
/// it as their nominal size so both sizing modes charge the true wire cost.
MessagePtr decode_payload(FrameKind kind, WireReader& in,
                          std::size_t frame_bytes) {
  switch (kind) {
    case FrameKind::Event: {
      EventPtr ev = read_event(in);
      std::vector<NodeId> route = read_node_list(in);
      if (!in.ok()) return nullptr;
      return std::make_shared<EventMessage>(std::move(ev), std::move(route));
    }
    case FrameKind::Subscribe: {
      const Pattern p = read_pattern(in);
      const std::uint8_t flags = in.u8();
      if (in.ok() && flags > 1) {
        in.fail(DecodeError::ValueOutOfRange);
        return nullptr;
      }
      if (!in.ok()) return nullptr;
      return std::make_shared<SubscribeMessage>(p, flags == 1);
    }
    case FrameKind::PushDigest: {
      const NodeId gossiper = read_node(in);
      const Pattern p = read_pattern(in);
      const std::uint32_t hops = in.varint32();
      std::vector<EventId> ids = read_event_id_list(in);
      if (!in.ok()) return nullptr;
      return std::make_shared<PushDigestMessage>(gossiper, frame_bytes, p,
                                                 std::move(ids), hops);
    }
    case FrameKind::SubscriberPullDigest: {
      const NodeId gossiper = read_node(in);
      const Pattern p = read_pattern(in);
      const std::uint32_t hops = in.varint32();
      std::vector<LostEntryInfo> wanted = read_lost_list(in);
      if (!in.ok()) return nullptr;
      return std::make_shared<SubscriberPullDigestMessage>(
          gossiper, frame_bytes, p, std::move(wanted), hops);
    }
    case FrameKind::PublisherPullDigest: {
      const NodeId gossiper = read_node(in);
      const NodeId source = read_node(in);
      std::vector<LostEntryInfo> wanted = read_lost_list(in);
      std::vector<NodeId> route = read_node_list(in);
      if (!in.ok()) return nullptr;
      return std::make_shared<PublisherPullDigestMessage>(
          gossiper, frame_bytes, source, std::move(wanted), std::move(route));
    }
    case FrameKind::RandomPullDigest: {
      const NodeId gossiper = read_node(in);
      const std::uint32_t hops = in.varint32();
      std::vector<LostEntryInfo> wanted = read_lost_list(in);
      if (!in.ok()) return nullptr;
      return std::make_shared<RandomPullDigestMessage>(
          gossiper, frame_bytes, std::move(wanted), hops);
    }
    case FrameKind::RecoveryRequest: {
      const NodeId gossiper = read_node(in);
      std::vector<EventId> ids = read_event_id_list(in);
      if (!in.ok()) return nullptr;
      return std::make_shared<RecoveryRequestMessage>(gossiper, frame_bytes,
                                                      std::move(ids));
    }
    case FrameKind::RecoveryReply: {
      const NodeId gossiper = read_node(in);
      const std::size_t n = in.count(/*min_element_bytes=*/5);
      std::vector<EventPtr> events;
      events.reserve(n);
      for (std::size_t i = 0; i < n && in.ok(); ++i) {
        if (EventPtr ev = read_event(in)) events.push_back(std::move(ev));
      }
      if (!in.ok()) return nullptr;
      return std::make_shared<RecoveryReplyMessage>(gossiper, frame_bytes,
                                                    std::move(events));
    }
    case FrameKind::Heartbeat: {
      const std::uint64_t incarnation = in.varint();
      const std::size_t n = in.count(/*min_element_bytes=*/3);
      std::vector<StreamMark> marks;
      marks.reserve(n);
      for (std::size_t i = 0; i < n && in.ok(); ++i) {
        const NodeId source = read_node(in);
        const Pattern pattern = read_pattern(in);
        marks.push_back(StreamMark{source, pattern, SeqNo{in.varint()}});
      }
      if (!in.ok()) return nullptr;
      return std::make_shared<HeartbeatMessage>(incarnation,
                                                std::move(marks));
    }
  }
  return nullptr;  // unreachable: callers validated the kind byte
}

}  // namespace

const char* to_string(FrameKind k) {
  switch (k) {
    case FrameKind::Event: return "event";
    case FrameKind::Subscribe: return "subscribe";
    case FrameKind::PushDigest: return "push-digest";
    case FrameKind::SubscriberPullDigest: return "subscriber-pull-digest";
    case FrameKind::PublisherPullDigest: return "publisher-pull-digest";
    case FrameKind::RandomPullDigest: return "random-pull-digest";
    case FrameKind::RecoveryRequest: return "recovery-request";
    case FrameKind::RecoveryReply: return "recovery-reply";
    case FrameKind::Heartbeat: return "heartbeat";
  }
  return "?";
}

const char* to_string(DecodeError e) {
  switch (e) {
    case DecodeError::TruncatedHeader: return "truncated-header";
    case DecodeError::BadLength: return "bad-length";
    case DecodeError::TruncatedPayload: return "truncated-payload";
    case DecodeError::TrailingBytes: return "trailing-bytes";
    case DecodeError::UnknownVersion: return "unknown-version";
    case DecodeError::UnknownKind: return "unknown-kind";
    case DecodeError::OverlongVarint: return "overlong-varint";
    case DecodeError::ValueOutOfRange: return "value-out-of-range";
    case DecodeError::BadCount: return "bad-count";
  }
  return "?";
}

std::optional<FrameKind> Codec::try_kind_of(const Message& msg) {
  // dynamic_cast, not message_class(): foreign Message subclasses may reuse
  // a class (the pure-gossip comparator rides MessageClass::Event) and must
  // not be reinterpreted as a codec type.
  if (dynamic_cast<const EventMessage*>(&msg) != nullptr) {
    return FrameKind::Event;
  }
  if (dynamic_cast<const SubscribeMessage*>(&msg) != nullptr) {
    return FrameKind::Subscribe;
  }
  if (dynamic_cast<const HeartbeatMessage*>(&msg) != nullptr) {
    return FrameKind::Heartbeat;
  }
  if (const auto* g = dynamic_cast<const GossipMessage*>(&msg)) {
    switch (g->kind()) {
      case GossipKind::PushDigest: return FrameKind::PushDigest;
      case GossipKind::SubscriberPullDigest:
        return FrameKind::SubscriberPullDigest;
      case GossipKind::PublisherPullDigest:
        return FrameKind::PublisherPullDigest;
      case GossipKind::RandomPullDigest: return FrameKind::RandomPullDigest;
      case GossipKind::Request: return FrameKind::RecoveryRequest;
      case GossipKind::Reply: return FrameKind::RecoveryReply;
    }
  }
  return std::nullopt;
}

FrameKind Codec::kind_of(const Message& msg) {
  const std::optional<FrameKind> kind = try_kind_of(msg);
  EPICAST_ASSERT_MSG(kind.has_value(), "message with no frame kind");
  return *kind;
}

void Codec::encode(const Message& msg, WireBuffer& out) {
  const FrameKind kind = kind_of(msg);
  const std::size_t len_offset = out.size();
  out.put_u32le(0);  // back-patched below
  out.put_u8(kVersion);
  out.put_u8(static_cast<std::uint8_t>(kind));
  const std::size_t payload_start = out.size();
  encode_payload(msg, kind, out);
  const std::size_t len = 2 + (out.size() - payload_start);
  EPICAST_ASSERT(len <= kMaxFrameLen);
  out.patch_u32le(len_offset, static_cast<std::uint32_t>(len));
}

std::size_t Codec::encoded_size(const Message& msg) {
  const std::optional<FrameKind> kind = try_kind_of(msg);
  if (!kind) return msg.size_bytes();  // foreign subclass: nominal fallback
  ByteCounter counter;
  encode_payload(msg, *kind, counter);
  return kHeaderBytes + counter.size();
}

Decoded Codec::decode(std::span<const std::uint8_t> frame) {
  if (frame.size() < kHeaderBytes) return DecodeError::TruncatedHeader;
  WireReader in(frame);
  const std::uint32_t len = in.u32le();
  if (len < 2 || len > kMaxFrameLen) return DecodeError::BadLength;
  if (static_cast<std::size_t>(len) + 4 > frame.size()) {
    return DecodeError::TruncatedPayload;
  }
  if (static_cast<std::size_t>(len) + 4 < frame.size()) {
    return DecodeError::TrailingBytes;
  }
  const std::uint8_t version = in.u8();
  if (version != kVersion) return DecodeError::UnknownVersion;
  const std::uint8_t kind_byte = in.u8();
  if (kind_byte > static_cast<std::uint8_t>(FrameKind::Heartbeat)) {
    return DecodeError::UnknownKind;
  }
  const auto kind = static_cast<FrameKind>(kind_byte);

  MessagePtr msg = decode_payload(kind, in, frame.size());
  if (!in.ok()) return in.error();
  if (in.remaining() != 0) return DecodeError::TrailingBytes;
  EPICAST_ASSERT(msg != nullptr);
  return msg;
}

}  // namespace epicast::wire

namespace epicast {

std::size_t Message::wire_size_bytes() const {
  if (wire_size_cache_ == 0) {
    wire_size_cache_ = wire::Codec::encoded_size(*this);
  }
  return wire_size_cache_;
}

}  // namespace epicast
