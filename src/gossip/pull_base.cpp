#include "epicast/gossip/pull_base.hpp"

#include <utility>

#include "epicast/common/assert.hpp"

namespace epicast {

PullProtocolBase::PullProtocolBase(Dispatcher& dispatcher, GossipConfig config)
    : GossipProtocolBase(dispatcher, config),
      detector_(kMaxGapReport),
      lost_(kLostCapacity, config.lost_entry_ttl) {}

void PullProtocolBase::on_event(const EventPtr& event,
                                const EventContext& ctx) {
  GossipProtocolBase::on_event(event, ctx);  // caching

  const NodeId source = event->source();
  for (const PatternSeq& ps : event->patterns()) {
    // Whatever way the event arrived, it is no longer lost.
    lost_.remove(LostEntryInfo{source, ps.pattern, ps.seq});

    // Gap detection runs only on locally subscribed patterns: those are the
    // streams this dispatcher is guaranteed to receive in full (§III-B).
    if (!d_.table().has_local(ps.pattern)) continue;
    for (SeqNo missing : detector_.observe(source, ps.pattern, ps.seq)) {
      lost_.add(LostEntryInfo{source, ps.pattern, missing},
                d_.now());
    }
  }

  // Remember the way back to the publisher (publisher-based pull). Routes
  // come only from normally-routed events; recoveries carry none.
  if (!ctx.recovered && !ctx.route.empty()) {
    routes_.update(source, ctx.route);
  }
}

void PullProtocolBase::preload_cache(const std::vector<EventPtr>& events) {
  GossipProtocolBase::preload_cache(events);
  for (const EventPtr& e : events) {
    for (const PatternSeq& ps : e->patterns()) {
      detector_.seed(e->source(), ps.pattern, ps.seq);
    }
  }
}

void PullProtocolBase::on_stream_marks(const std::vector<StreamMark>& marks) {
  for (const StreamMark& m : marks) {
    if (!d_.table().has_local(m.pattern)) continue;
    const std::uint64_t high =
        detector_.high_watermark(m.source, m.pattern).value();
    if (m.seq.value() <= high) continue;
    // Everything in (high, mark] exists somewhere and never arrived here —
    // including the mark itself (unlike a live observation). The gap
    // detector's first-contact rule does not apply: sequence numbers start
    // at 1 by construction, so a mark for a stream never heard from (its
    // head was lost, or this node cold-restarted) pins down the missing
    // range exactly. Clamp like the gap detector so a long outage cannot
    // flood the Lost buffer.
    std::uint64_t from = high + 1;
    const std::uint64_t to = m.seq.value();  // inclusive
    if (to - high > kMaxGapReport) from = to - kMaxGapReport + 1;
    for (std::uint64_t s = from; s <= to; ++s) {
      lost_.add(LostEntryInfo{m.source, m.pattern, SeqNo{s}}, d_.now());
    }
    detector_.seed(m.source, m.pattern, m.seq);
  }
}

void PullProtocolBase::on_restart(fault::RestartPolicy policy) {
  GossipProtocolBase::on_restart(policy);
  if (policy == fault::RestartPolicy::Cold) {
    detector_.reset();
    lost_.clear();
    routes_.clear();
  }
}

void PullProtocolBase::watch_digest(const std::vector<NodeId>& targets,
                                    const std::vector<LostEntryInfo>& wanted) {
  const std::uint64_t epoch = restart_epoch();
  d_.runtime().after(
      cfg_.request_timeout, [this, targets, wanted, epoch]() {
        if (epoch != restart_epoch() || !active()) return;
        for (const LostEntryInfo& w : wanted) {
          if (!lost_.contains(w)) return;  // the exchange recovered something
        }
        // Every entry is still missing: the digest (or its replies) went
        // nowhere. One timeout for the exchange; every target is suspect.
        ++stats_.request_timeouts;
        for (NodeId t : targets) note_peer_timeout(t);
      });
}

bool PullProtocolBase::round_subscriber() {
  lost_.expire(d_.now());
  // The pull gossiper draws p from subscriptions issued *locally* — the
  // goal is retrieving events relevant to itself, not dissemination
  // (§III-B). Lost entries only ever involve local patterns, so the
  // buffer's pattern set is exactly that population.
  const std::size_t n_patterns = lost_.patterns_with_losses_count();
  if (n_patterns == 0) return false;
  const Pattern p =
      lost_.pattern_with_losses_at(d_.rng().next_below(n_patterns));

  lost_.entries_for_pattern_into(p, wanted_scratch_);
  EPICAST_ASSERT(!wanted_scratch_.empty());

  d_.table().route_targets_into(p, NodeId::invalid(), targets_scratch_);
  fanout_into(targets_scratch_, true, fanout_scratch_);
  if (retry_hardening()) prune_suspects(fanout_scratch_);
  if (!fanout_scratch_.empty()) {
    // One immutable digest shared by every target this round.
    const MessagePtr digest =
        msgs_.subscriber_pull_digest(d_.id(), p, wanted_scratch_, /*hops=*/0);
    for (NodeId to : fanout_scratch_) {
      send_digest(to, digest, /*originated=*/true);
    }
    if (retry_hardening()) watch_digest(fanout_scratch_, wanted_scratch_);
  }
  return true;
}

bool PullProtocolBase::round_publisher() {
  lost_.expire(d_.now());
  // Candidate sources: losses we can actually steer towards — a route back
  // to the publisher must be known. Oldest pending loss first, so no source
  // starves while the buffer churns (cf. kPublisherSourcesPerRound).
  const std::vector<NodeId> sources = lost_.oldest_sources(
      kPublisherSourcesPerRound,
      [this](NodeId s) { return routes_.knows(s); });
  if (sources.empty()) return false;

  for (NodeId source : sources) {
    std::vector<LostEntryInfo> wanted = lost_.entries_for_source(source);
    EPICAST_ASSERT(!wanted.empty());

    // Visit only the first kPublisherRouteHops of the stored route (the
    // part most likely still valid and most likely to short-circuit), then
    // go straight for the publisher.
    std::vector<NodeId> route = routes_.route_to(source);
    if (route.size() > kPublisherRouteHops + 1) {
      route.erase(route.begin() +
                      static_cast<std::ptrdiff_t>(kPublisherRouteHops),
                  route.end() - 1);
    }
    forward_towards_publisher(d_.id(), source, std::move(wanted),
                              std::move(route), /*originated=*/true);
  }
  return true;
}

void PullProtocolBase::forward_towards_publisher(
    NodeId gossiper, NodeId source, std::vector<LostEntryInfo> wanted,
    std::vector<NodeId> route, bool originated) {
  // Drop leading hops equal to self (defensive: routes never include the
  // local node, but a stale route could).
  while (!route.empty() && route.front() == d_.id()) {
    route.erase(route.begin());
  }
  if (route.empty()) return;  // reached the recorded end of the route

  NodeId next = route.front();
  route.erase(route.begin());
  // Crash-aware re-selection: hop over next hops the digest layer has seen
  // go silent, as long as further hops remain — the final hop (the
  // publisher itself) is always attempted.
  while (retry_hardening() && peer_suspect(next) && !route.empty()) {
    next = route.front();
    route.erase(route.begin());
  }
  MessagePtr msg = msgs_.publisher_pull_digest(gossiper, source,
                                               std::move(wanted),
                                               std::move(route));

  if (d_.has_link_to(next)) {
    send_digest(next, std::move(msg), originated);
  } else {
    // The recorded route predates a reconfiguration; the next hop is no
    // longer adjacent. Fall back to the out-of-band channel so the digest
    // still makes progress towards the publisher.
    if (originated) {
      ++stats_.digests_originated;
    } else {
      ++stats_.digests_forwarded;
    }
    d_.send_direct(next, std::move(msg));
  }
}

void PullProtocolBase::handle_digest(NodeId from, const GossipMessage& msg) {
  switch (msg.kind()) {
    case GossipKind::SubscriberPullDigest:
      handle_subscriber_digest(
          from, static_cast<const SubscriberPullDigestMessage&>(msg));
      return;
    case GossipKind::PublisherPullDigest:
      handle_publisher_digest(
          static_cast<const PublisherPullDigestMessage&>(msg));
      return;
    case GossipKind::RandomPullDigest:
      handle_random_digest(from,
                           static_cast<const RandomPullDigestMessage&>(msg));
      return;
    case GossipKind::PushDigest: {
      // Heterogeneous deployment tolerance: a neighbour running push
      // advertised its cache. Behave like a push receiver — request what we
      // are subscribed to and missing — but do not forward (we cannot know
      // push's fan-out discipline is wanted here).
      const auto& digest = static_cast<const PushDigestMessage&>(msg);
      if (d_.table().has_local(digest.pattern()) &&
          digest.gossiper() != d_.id()) {
        std::vector<EventId> missing;
        for (const EventId& id : digest.ids()) {
          if (!d_.has_seen(id)) missing.push_back(id);
        }
        if (!missing.empty()) {
          send_request(digest.gossiper(), std::move(missing));
        }
      }
      return;
    }
    default:
      EPICAST_UNREACHABLE("pull received a foreign digest");
  }
}

void PullProtocolBase::handle_subscriber_digest(
    NodeId from, const SubscriberPullDigestMessage& msg) {
  if (msg.gossiper() == d_.id()) return;  // defensive; trees have no cycles
  // A copy of this digest already arrived along another route path (cyclic
  // overlays only — see digest_duplicate()): it was served and forwarded
  // then.
  const LostEntryInfo& head = msg.wanted().front();
  if (digest_duplicate(mix_digest_key(
          (static_cast<std::uint64_t>(msg.gossiper().value()) << 34) |
              (static_cast<std::uint64_t>(msg.pattern().value()) << 2) | 2u,
          (static_cast<std::uint64_t>(msg.wanted().size()) << 48) ^
              (static_cast<std::uint64_t>(head.source.value()) << 24) ^
              (static_cast<std::uint64_t>(head.pattern.value()) << 16) ^
              head.seq.value()))) {
    return;
  }
  // This dispatcher may not subscribe to msg.pattern() at all — it can sit
  // on the route and still own the events because they also match one of
  // its own patterns p' != p (§III-B).
  std::vector<LostEntryInfo> remaining =
      serve_from_cache(msg.gossiper(), msg.wanted());
  if (remaining.empty()) return;  // fully short-circuited
  if (msg.hops() + 1 > cfg_.max_hops) return;
  d_.table().route_targets_into(msg.pattern(), from, targets_scratch_);
  fanout_into(targets_scratch_, true, fanout_scratch_);
  if (retry_hardening()) prune_suspects(fanout_scratch_);
  if (!fanout_scratch_.empty()) {
    const MessagePtr fwd = msgs_.subscriber_pull_digest(
        msg.gossiper(), msg.pattern(), std::move(remaining), msg.hops() + 1);
    for (NodeId to : fanout_scratch_) {
      send_digest(to, fwd, /*originated=*/false);
    }
  }
}

void PullProtocolBase::handle_publisher_digest(
    const PublisherPullDigestMessage& msg) {
  if (msg.gossiper() == d_.id()) return;
  std::vector<LostEntryInfo> remaining =
      serve_from_cache(msg.gossiper(), msg.wanted());
  if (remaining.empty()) return;
  forward_towards_publisher(msg.gossiper(), msg.source(),
                            std::move(remaining), msg.route(),
                            /*originated=*/false);
}

void PullProtocolBase::handle_random_digest(
    NodeId from, const RandomPullDigestMessage& msg) {
  if (msg.gossiper() == d_.id()) return;
  // See handle_subscriber_digest: drop route-path duplicates.
  const LostEntryInfo& rhead = msg.wanted().front();
  if (digest_duplicate(mix_digest_key(
          (static_cast<std::uint64_t>(msg.gossiper().value()) << 34) | 3u,
          (static_cast<std::uint64_t>(msg.wanted().size()) << 48) ^
              (static_cast<std::uint64_t>(rhead.source.value()) << 24) ^
              (static_cast<std::uint64_t>(rhead.pattern.value()) << 16) ^
              rhead.seq.value()))) {
    return;
  }
  std::vector<LostEntryInfo> remaining =
      serve_from_cache(msg.gossiper(), msg.wanted());
  if (remaining.empty()) return;
  if (msg.hops() + 1 > cfg_.max_hops) return;
  targets_scratch_.clear();
  for (NodeId n : d_.neighbors()) {
    if (n != from) targets_scratch_.push_back(n);
  }
  fanout_into(targets_scratch_, false, fanout_scratch_);
  if (!fanout_scratch_.empty()) {
    const MessagePtr fwd = msgs_.random_pull_digest(
        msg.gossiper(), std::move(remaining), msg.hops() + 1);
    for (NodeId to : fanout_scratch_) {
      send_digest(to, fwd, /*originated=*/false);
    }
  }
}

}  // namespace epicast
