#include "epicast/gossip/push.hpp"

#include <utility>

#include "epicast/common/assert.hpp"

namespace epicast {

bool PushProtocol::on_round() {
  const bool activity = saw_request_since_round_;
  saw_request_since_round_ = false;

  // p is drawn from the whole table: patterns the dispatcher subscribes to
  // *or* routes for. This widens dissemination and speeds up convergence
  // (§III-B).
  const std::size_t n_patterns = d_.table().known_pattern_count();
  if (n_patterns == 0) return activity;
  const Pattern p =
      d_.table().known_pattern_at(d_.rng().next_below(n_patterns));

  cache_.ids_matching_into(p, ids_scratch_);
  if (ids_scratch_.empty()) return activity;  // nothing worth advertising

  d_.table().route_targets_into(p, NodeId::invalid(), targets_scratch_);
  fanout_into(targets_scratch_, true, fanout_scratch_);
  if (!fanout_scratch_.empty()) {
    // One immutable digest shared by every target this round.
    const MessagePtr digest = make_message<PushDigestMessage>(
        d_.id(), p, ids_scratch_, /*hops=*/0);
    for (NodeId to : fanout_scratch_) {
      send_digest(to, digest, /*originated=*/true);
    }
  }
  // Proactive sends are not "activity": only observed demand (requests)
  // keeps the adaptive interval at its minimum.
  return activity;
}

void PushProtocol::handle_digest(NodeId from, const GossipMessage& msg) {
  if (msg.kind() != GossipKind::PushDigest) {
    // Heterogeneous deployment tolerance: a neighbour running a pull
    // variant asked for missing events. Serve what the cache holds; the
    // pull node's own gossip handles any remainder.
    switch (msg.kind()) {
      case GossipKind::SubscriberPullDigest:
        (void)serve_from_cache(
            msg.gossiper(),
            static_cast<const SubscriberPullDigestMessage&>(msg).wanted());
        return;
      case GossipKind::PublisherPullDigest:
        (void)serve_from_cache(
            msg.gossiper(),
            static_cast<const PublisherPullDigestMessage&>(msg).wanted());
        return;
      case GossipKind::RandomPullDigest:
        (void)serve_from_cache(
            msg.gossiper(),
            static_cast<const RandomPullDigestMessage&>(msg).wanted());
        return;
      default:
        EPICAST_UNREACHABLE("unexpected gossip kind in push");
    }
  }
  const auto& digest = static_cast<const PushDigestMessage&>(msg);
  const Pattern p = digest.pattern();

  // A copy of this digest already arrived along another route path (cyclic
  // overlays only — see digest_duplicate()): requests went out then.
  if (digest_duplicate(digest)) return;

  // Only dispatchers actually subscribed to p compare the digest against
  // their own event history (§III-B).
  if (d_.table().has_local(p) && digest.gossiper() != d_.id()) {
    std::vector<EventId> missing;
    for (const EventId& id : digest.ids()) {
      if (!d_.has_seen(id)) missing.push_back(id);
    }
    if (!missing.empty()) send_request(digest.gossiper(), std::move(missing));
  }

  // Propagate along the tree like an event matching p, with P_forward
  // subsetting at every hop.
  if (digest.hops() + 1 > cfg_.max_hops) return;
  d_.table().route_targets_into(p, from, targets_scratch_);
  fanout_into(targets_scratch_, true, fanout_scratch_);
  if (!fanout_scratch_.empty()) {
    const MessagePtr fwd = make_message<PushDigestMessage>(
        digest.gossiper(), p, digest.ids(), digest.hops() + 1);
    for (NodeId to : fanout_scratch_) {
      send_digest(to, fwd, /*originated=*/false);
    }
  }
}

void PushProtocol::handle_request(NodeId from,
                                  const RecoveryRequestMessage& msg) {
  saw_request_since_round_ = true;
  GossipProtocolBase::handle_request(from, msg);
}

}  // namespace epicast
