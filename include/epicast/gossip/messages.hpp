// epicast — gossip-layer wire messages (§III-B).
//
// Digests ride the overlay tree (class GossipDigest); retransmission
// requests and replies use the out-of-band channel (GossipRequest /
// GossipReply). Every gossip message reports the nominal size configured in
// GossipConfig, matching the paper's equal-size accounting assumption.
//
// The (source, pattern, seq) triple a negative digest names, LostEntryInfo,
// also keys the β buffer's pull index and the Lost buffer; LostEntryKey is
// its FlatHashMap hash.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "epicast/common/flat_hash_map.hpp"
#include "epicast/common/ids.hpp"
#include "epicast/net/message.hpp"
#include "epicast/pubsub/event.hpp"

namespace epicast {

/// Identifies one lost event in a negative digest: the source, the matched
/// pattern, and the per-(source, pattern) sequence number (§III-B, Pull).
struct LostEntryInfo {
  NodeId source;
  Pattern pattern;
  SeqNo seq;

  friend constexpr auto operator<=>(const LostEntryInfo&,
                                    const LostEntryInfo&) = default;
};

/// FlatHashMap key traits for (source, pattern, seq) triples: the β buffer's
/// pull index and the Lost buffer.
struct LostEntryKey {
  static constexpr std::uint64_t hash(const LostEntryInfo& k) {
    return hash_mix(stream_key(k.source, k.pattern) +
                    k.seq.value() * 0x9e3779b97f4a7c15ULL);
  }
};

/// Discriminates gossip message types without RTTI.
enum class GossipKind {
  PushDigest,
  SubscriberPullDigest,
  PublisherPullDigest,
  RandomPullDigest,
  Request,
  Reply,
};

class GossipMessage : public Message {
 public:
  GossipMessage(NodeId gossiper, std::size_t nominal_bytes)
      : gossiper_(gossiper), nominal_bytes_(nominal_bytes) {}

  [[nodiscard]] virtual GossipKind kind() const = 0;
  /// The dispatcher whose gossip round originated this exchange.
  [[nodiscard]] NodeId gossiper() const { return gossiper_; }
  [[nodiscard]] std::size_t size_bytes() const override {
    return nominal_bytes_;
  }

 private:
  NodeId gossiper_;
  std::size_t nominal_bytes_;
};

/// Push (§III-B): positive digest of cached event ids matching `pattern`,
/// routed along the tree as if it were an event matching that pattern.
class PushDigestMessage final : public GossipMessage {
 public:
  PushDigestMessage(NodeId gossiper, std::size_t nominal_bytes,
                    Pattern pattern, std::vector<EventId> ids,
                    std::uint32_t hops)
      : GossipMessage(gossiper, nominal_bytes),
        pattern_(pattern),
        ids_(std::move(ids)),
        hops_(hops) {}

  [[nodiscard]] MessageClass message_class() const override {
    return MessageClass::GossipDigest;
  }
  [[nodiscard]] GossipKind kind() const override {
    return GossipKind::PushDigest;
  }

  [[nodiscard]] Pattern pattern() const { return pattern_; }
  [[nodiscard]] const std::vector<EventId>& ids() const { return ids_; }
  [[nodiscard]] std::uint32_t hops() const { return hops_; }

 private:
  Pattern pattern_;
  std::vector<EventId> ids_;
  std::uint32_t hops_;
};

/// Subscriber-based pull (§III-B): negative digest of events the gossiper
/// is missing for `pattern`, routed along the tree like push.
class SubscriberPullDigestMessage final : public GossipMessage {
 public:
  SubscriberPullDigestMessage(NodeId gossiper, std::size_t nominal_bytes,
                              Pattern pattern,
                              std::vector<LostEntryInfo> wanted,
                              std::uint32_t hops)
      : GossipMessage(gossiper, nominal_bytes),
        pattern_(pattern),
        wanted_(std::move(wanted)),
        hops_(hops) {}

  [[nodiscard]] MessageClass message_class() const override {
    return MessageClass::GossipDigest;
  }
  [[nodiscard]] GossipKind kind() const override {
    return GossipKind::SubscriberPullDigest;
  }

  [[nodiscard]] Pattern pattern() const { return pattern_; }
  [[nodiscard]] const std::vector<LostEntryInfo>& wanted() const {
    return wanted_;
  }
  [[nodiscard]] std::uint32_t hops() const { return hops_; }

 private:
  Pattern pattern_;
  std::vector<LostEntryInfo> wanted_;
  std::uint32_t hops_;
};

/// Publisher-based pull (§III-B): negative digest for one source, routed
/// back towards the publisher along the recorded route. `route` holds the
/// hops still to visit (next hop first, publisher last).
class PublisherPullDigestMessage final : public GossipMessage {
 public:
  PublisherPullDigestMessage(NodeId gossiper, std::size_t nominal_bytes,
                             NodeId source, std::vector<LostEntryInfo> wanted,
                             std::vector<NodeId> route)
      : GossipMessage(gossiper, nominal_bytes),
        source_(source),
        wanted_(std::move(wanted)),
        route_(std::move(route)) {}

  [[nodiscard]] MessageClass message_class() const override {
    return MessageClass::GossipDigest;
  }
  [[nodiscard]] GossipKind kind() const override {
    return GossipKind::PublisherPullDigest;
  }

  [[nodiscard]] NodeId source() const { return source_; }
  [[nodiscard]] const std::vector<LostEntryInfo>& wanted() const {
    return wanted_;
  }
  [[nodiscard]] const std::vector<NodeId>& route() const { return route_; }

 private:
  NodeId source_;
  std::vector<LostEntryInfo> wanted_;
  std::vector<NodeId> route_;
};

/// Random pull (§IV): negative digest forwarded to random neighbours —
/// the control showing that steering gossip is worth the effort.
class RandomPullDigestMessage final : public GossipMessage {
 public:
  RandomPullDigestMessage(NodeId gossiper, std::size_t nominal_bytes,
                          std::vector<LostEntryInfo> wanted,
                          std::uint32_t hops)
      : GossipMessage(gossiper, nominal_bytes),
        wanted_(std::move(wanted)),
        hops_(hops) {}

  [[nodiscard]] MessageClass message_class() const override {
    return MessageClass::GossipDigest;
  }
  [[nodiscard]] GossipKind kind() const override {
    return GossipKind::RandomPullDigest;
  }

  [[nodiscard]] const std::vector<LostEntryInfo>& wanted() const {
    return wanted_;
  }
  [[nodiscard]] std::uint32_t hops() const { return hops_; }

 private:
  std::vector<LostEntryInfo> wanted_;
  std::uint32_t hops_;
};

/// Out-of-band request for full events, sent to the dispatcher that
/// advertised them in a push digest.
class RecoveryRequestMessage final : public GossipMessage {
 public:
  RecoveryRequestMessage(NodeId gossiper, std::size_t nominal_bytes,
                         std::vector<EventId> ids)
      : GossipMessage(gossiper, nominal_bytes), ids_(std::move(ids)) {}

  [[nodiscard]] MessageClass message_class() const override {
    return MessageClass::GossipRequest;
  }
  [[nodiscard]] GossipKind kind() const override {
    return GossipKind::Request;
  }

  [[nodiscard]] const std::vector<EventId>& ids() const { return ids_; }

 private:
  std::vector<EventId> ids_;
};

/// Out-of-band retransmission of full events to the dispatcher that needs
/// them (the gossiper for pulls; the requester for push).
class RecoveryReplyMessage final : public GossipMessage {
 public:
  RecoveryReplyMessage(NodeId gossiper, std::size_t nominal_bytes,
                       std::vector<EventPtr> events)
      : GossipMessage(gossiper, nominal_bytes), events_(std::move(events)) {}

  [[nodiscard]] MessageClass message_class() const override {
    return MessageClass::GossipReply;
  }
  [[nodiscard]] GossipKind kind() const override { return GossipKind::Reply; }

  [[nodiscard]] const std::vector<EventPtr>& events() const {
    return events_;
  }

 private:
  std::vector<EventPtr> events_;
};

}  // namespace epicast
