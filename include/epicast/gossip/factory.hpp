// epicast — the single construction point for gossip wire messages.
//
// Every digest, request, and reply the recovery protocols emit is built
// here, so the wire-level concerns live in one place: the nominal size the
// paper's accounting assigns (GossipConfig::gossip_message_bytes), and —
// because every product is a codec-encodable Message — the byte-accurate
// frame size SizingMode::Wire charges via Message::wire_size_bytes().
// Every product is allocated from the runtime's MessagePool via
// make_pooled.
// Future wire features (MTU fragmentation, digest batching) hook in here
// without touching the protocol logic.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "epicast/common/ids.hpp"
#include "epicast/common/message_pool.hpp"
#include "epicast/gossip/messages.hpp"
#include "epicast/pubsub/event.hpp"

namespace epicast {

class GossipMessageFactory {
 public:
  /// `self` is the owning dispatcher — the gossiper of every message that
  /// originates locally (requests, replies, round-0 digests). `pool` must
  /// outlive the factory (the runtime's pool does).
  GossipMessageFactory(NodeId self, std::size_t nominal_bytes,
                       const MessagePool& pool)
      : self_(self), nominal_bytes_(nominal_bytes), pool_(pool) {}

  [[nodiscard]] NodeId self() const { return self_; }
  [[nodiscard]] std::size_t nominal_bytes() const { return nominal_bytes_; }

  /// Digests carry an explicit `gossiper`: forwarding preserves the
  /// originator while the frame travels the tree.
  [[nodiscard]] MessagePtr push_digest(NodeId gossiper, Pattern pattern,
                                       std::vector<EventId> ids,
                                       std::uint32_t hops) const {
    return build<PushDigestMessage>(gossiper, nominal_bytes_, pattern,
                                    std::move(ids), hops);
  }

  [[nodiscard]] MessagePtr subscriber_pull_digest(
      NodeId gossiper, Pattern pattern, std::vector<LostEntryInfo> wanted,
      std::uint32_t hops) const {
    return build<SubscriberPullDigestMessage>(gossiper, nominal_bytes_,
                                              pattern, std::move(wanted),
                                              hops);
  }

  [[nodiscard]] MessagePtr publisher_pull_digest(
      NodeId gossiper, NodeId source, std::vector<LostEntryInfo> wanted,
      std::vector<NodeId> route) const {
    return build<PublisherPullDigestMessage>(gossiper, nominal_bytes_, source,
                                             std::move(wanted),
                                             std::move(route));
  }

  [[nodiscard]] MessagePtr random_pull_digest(NodeId gossiper,
                                              std::vector<LostEntryInfo> wanted,
                                              std::uint32_t hops) const {
    return build<RandomPullDigestMessage>(gossiper, nominal_bytes_,
                                          std::move(wanted), hops);
  }

  [[nodiscard]] MessagePtr request(std::vector<EventId> ids) const {
    return build<RecoveryRequestMessage>(self_, nominal_bytes_,
                                         std::move(ids));
  }

  [[nodiscard]] MessagePtr reply(std::vector<EventPtr> events) const {
    return build<RecoveryReplyMessage>(self_, nominal_bytes_,
                                       std::move(events));
  }

 private:
  template <typename T, typename... Args>
  [[nodiscard]] MessagePtr build(Args&&... args) const {
    return make_pooled<T>(pool_, std::forward<Args>(args)...);
  }

  NodeId self_;
  std::size_t nominal_bytes_;
  const MessagePool& pool_;
};

}  // namespace epicast
