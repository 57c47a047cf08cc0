#include "epicast/gossip/protocol.hpp"

#include <algorithm>
#include <utility>

#include "epicast/common/assert.hpp"
#include "epicast/gossip/pull.hpp"
#include "epicast/gossip/push.hpp"

namespace epicast {
namespace {

/// The content hash digest_duplicate() keys on. One word holds the
/// gossiper, the pattern (none for random pull) and a kind tag; the other
/// the entry count and the first entry (a push digest's first id has no
/// pattern).
std::uint64_t digest_key(const GossipMessage& digest) {
  std::uint64_t tag = 0;
  std::uint64_t pattern = 0;
  std::uint64_t count = 0;
  std::uint64_t head_source = 0;
  std::uint64_t head_pattern = 0;
  std::uint64_t head_seq = 0;
  const auto take_wanted = [&](const std::vector<LostEntryInfo>& wanted) {
    count = wanted.size();
    head_source = wanted.front().source.value();
    head_pattern = wanted.front().pattern.value();
    head_seq = wanted.front().seq.value();
  };
  switch (digest.kind()) {
    case GossipKind::PushDigest: {
      const auto& m = static_cast<const PushDigestMessage&>(digest);
      tag = 1;
      pattern = m.pattern().value();
      count = m.ids().size();
      head_source = m.ids().front().source.value();
      head_seq = m.ids().front().source_seq;
      break;
    }
    case GossipKind::SubscriberPullDigest: {
      const auto& m = static_cast<const SubscriberPullDigestMessage&>(digest);
      tag = 2;
      pattern = m.pattern().value();
      take_wanted(m.wanted());
      break;
    }
    case GossipKind::RandomPullDigest:
      tag = 3;
      take_wanted(static_cast<const RandomPullDigestMessage&>(digest).wanted());
      break;
    default:
      EPICAST_UNREACHABLE("no duplicate filter for this digest kind");
  }
  const std::uint64_t a =
      (static_cast<std::uint64_t>(digest.gossiper().value()) << 34) |
      (pattern << 2) | tag;
  const std::uint64_t b =
      (count << 48) ^ (head_source << 24) ^ (head_pattern << 16) ^ head_seq;
  return hash_mix(a * 0x9E3779B97F4A7C15ull ^ b);
}

}  // namespace

const char* to_string(Algorithm a) {
  switch (a) {
    case Algorithm::NoRecovery: return "no-recovery";
    case Algorithm::Push: return "push";
    case Algorithm::SubscriberPull: return "subscriber-pull";
    case Algorithm::PublisherPull: return "publisher-pull";
    case Algorithm::CombinedPull: return "combined-pull";
    case Algorithm::RandomPull: return "random-pull";
  }
  return "?";
}

GossipProtocolBase::GossipProtocolBase(Dispatcher& dispatcher,
                                       GossipConfig config)
    : d_(dispatcher),
      cfg_(config),
      cache_(config.buffer_size, dispatcher.runtime().event_registry()),
      prof_(dispatcher.profiler()),
      adaptive_(config.adaptive, config.interval) {
  // Drawn and discarded: every seed guard pins the draws that follow.
  (void)d_.rng().next();
  cache_.set_profiler(&prof_);
  EPICAST_ASSERT(cfg_.interval > Duration::zero());
  EPICAST_ASSERT(cfg_.forward_probability >= 0.0 &&
                 cfg_.forward_probability <= 1.0);
  EPICAST_ASSERT(cfg_.source_probability >= 0.0 &&
                 cfg_.source_probability <= 1.0);
}

void GossipProtocolBase::start() {
  EPICAST_ASSERT_MSG(!timer_.running(), "protocol already started");
  // A uniform first round in [0, T) desynchronizes the dispatchers.
  const Duration first =
      Duration::seconds(d_.rng().uniform(0.0, cfg_.interval.to_seconds()));
  timer_ = d_.runtime().every(first, current_interval(),
                              [this]() { run_round(); });
}

void GossipProtocolBase::stop() { timer_.stop(); }

void GossipProtocolBase::on_restart(fault::RestartPolicy policy) {
  peer_timeouts_.clear();
  if (policy == fault::RestartPolicy::Cold) {
    cache_.clear();
    digest_marks_.reset();
    stream_marks_.clear();
    stream_mark_index_.clear();
    ++restart_epoch_;
  }
}

bool GossipProtocolBase::digest_duplicate(const GossipMessage& digest) {
  const std::uint64_t key = digest_key(digest);
  const Duration round_spacing =
      cfg_.adaptive.enabled ? cfg_.adaptive.min_interval : cfg_.interval;
  const SimTime now = d_.now();
  if (!digest_marks_) digest_marks_ = std::make_unique<DigestMarks>();
  DigestMark& slot = (*digest_marks_)[key & (digest_marks_->size() - 1)];
  const bool dup = slot.key == key && now - slot.at <= round_spacing * 0.5;
  slot.key = key;
  slot.at = now;
  return dup;
}

bool GossipProtocolBase::peer_suspect(NodeId peer) const {
  const auto it = peer_timeouts_.find(peer.value());
  return it != peer_timeouts_.end() && it->second >= kSuspectAfterTimeouts;
}

void GossipProtocolBase::note_peer_alive(NodeId peer) {
  if (!peer_timeouts_.empty()) peer_timeouts_.erase(peer.value());
}

void GossipProtocolBase::note_peer_timeout(NodeId peer) {
  ++peer_timeouts_[peer.value()];
}

void GossipProtocolBase::on_peer_alive(NodeId peer) { note_peer_alive(peer); }

void GossipProtocolBase::on_peer_suspected(NodeId peer) {
  // Jump straight to the suspicion threshold: the failure detector already
  // applied its own strike policy before telling us.
  std::uint32_t& strikes = peer_timeouts_[peer.value()];
  strikes = std::max(strikes, kSuspectAfterTimeouts);
}

void GossipProtocolBase::preload_cache(const std::vector<EventPtr>& events) {
  for (const EventPtr& e : events) {
    cache_.insert(e);
    if (witness_streams_) note_stream_marks(*e);
  }
}

void GossipProtocolBase::note_stream_marks(const EventData& event) {
  for (const PatternSeq& ps : event.patterns()) {
    const auto [pos, added] = stream_mark_index_.try_emplace(
        stream_key(event.source(), ps.pattern),
        static_cast<std::uint32_t>(stream_marks_.size()));
    if (added) {
      stream_marks_.push_back(StreamMark{event.source(), ps.pattern, ps.seq});
    } else {
      SeqNo& high = stream_marks_[*pos].seq;
      high = std::max(high, ps.seq);
    }
  }
}

std::size_t GossipProtocolBase::stream_marks_into(
    std::size_t cursor, std::size_t max_entries,
    std::vector<StreamMark>& out) const {
  const std::size_t n = stream_marks_.size();
  if (n == 0 || max_entries == 0) return 0;
  cursor %= n;
  for (std::size_t i = 0; i < std::min(max_entries, n); ++i) {
    out.push_back(stream_marks_[cursor]);
    if (++cursor == n) cursor = 0;
  }
  return cursor;
}

void GossipProtocolBase::prune_suspects(std::vector<NodeId>& targets) const {
  bool any_healthy = false;
  for (NodeId n : targets) {
    if (!peer_suspect(n)) {
      any_healthy = true;
      break;
    }
  }
  if (!any_healthy) return;  // no better choice; keep the set as picked
  std::erase_if(targets, [this](NodeId n) { return peer_suspect(n); });
}

void GossipProtocolBase::run_round() {
  HotpathProfiler::Scope scope(prof_, HotPhase::GossipRound);
  ++stats_.rounds;
  const bool had_activity = on_round();
  if (!had_activity) ++stats_.rounds_skipped;
  if (adaptive_.enabled()) {
    timer_.set_interval(adaptive_.next(had_activity));
  }
}

void GossipProtocolBase::on_event(const EventPtr& event,
                                  const EventContext& ctx) {
  if (witness_streams_) note_stream_marks(*event);
  if (!responsible_for(*event, ctx.local_publish)) return;
  // Publishers always cache their own events (publisher-based pull relies
  // on the source as the recovery backstop, §III-B); subscribers are
  // subject to the admission probability.
  if (!ctx.local_publish &&
      !d_.rng().chance(cfg_.cache_admission_probability)) {
    return;
  }
  cache_.insert(event);
}

bool GossipProtocolBase::responsible_for(const EventData& event,
                                         bool local_publish) const {
  return local_publish || d_.table().matches_local(event);
}

void GossipProtocolBase::on_gossip(NodeId from, const MessagePtr& msg) {
  HotpathProfiler::Scope scope(prof_, HotPhase::GossipHandle);
  if (retry_hardening()) note_peer_alive(from);
  const auto& gmsg = static_cast<const GossipMessage&>(*msg);
  switch (gmsg.kind()) {
    case GossipKind::Request:
      handle_request(from, static_cast<const RecoveryRequestMessage&>(gmsg));
      return;
    case GossipKind::Reply:
      handle_reply(static_cast<const RecoveryReplyMessage&>(gmsg));
      return;
    default:
      handle_digest(from, gmsg);
      return;
  }
}

void GossipProtocolBase::handle_request(NodeId from,
                                        const RecoveryRequestMessage& msg) {
  std::vector<EventPtr> found;
  for (const EventId& id : msg.ids()) {
    if (EventPtr event = cache_.get(id)) found.push_back(std::move(event));
  }
  if (!found.empty()) {
    stats_.events_served += found.size();
    send_reply(from, std::move(found));
  }
}

std::vector<LostEntryInfo> GossipProtocolBase::serve_from_cache(
    NodeId gossiper, const std::vector<LostEntryInfo>& wanted) {
  std::vector<EventPtr> found;
  std::vector<LostEntryInfo> remaining;
  for (const LostEntryInfo& w : wanted) {
    if (EventPtr event = cache_.find(w.source, w.pattern, w.seq)) {
      found.push_back(std::move(event));
    } else {
      remaining.push_back(w);
    }
  }
  if (!found.empty()) {
    // The same event can satisfy several wanted entries (it matches several
    // patterns); send each copy once.
    std::sort(found.begin(), found.end(),
              [](const EventPtr& a, const EventPtr& b) {
                return a->id() < b->id();
              });
    found.erase(std::unique(found.begin(), found.end(),
                            [](const EventPtr& a, const EventPtr& b) {
                              return a->id() == b->id();
                            }),
                found.end());
    stats_.events_served += found.size();
    send_reply(gossiper, std::move(found));
  }
  return remaining;
}

void GossipProtocolBase::handle_reply(const RecoveryReplyMessage& msg) {
  for (const EventPtr& event : msg.events()) {
    if (d_.accept_recovered(event)) {
      ++stats_.events_recovered;
    } else {
      ++stats_.reply_duplicates;
    }
  }
}

void GossipProtocolBase::fanout_into(std::span<const NodeId> candidates,
                                     bool ensure_progress,
                                     std::vector<NodeId>& out) {
  out.clear();
  out.reserve(candidates.size());
  for (NodeId n : candidates) {
    if (d_.rng().chance(cfg_.forward_probability)) out.push_back(n);
  }
  if (out.empty() && ensure_progress && !candidates.empty()) {
    out.push_back(candidates[d_.rng().next_below(candidates.size())]);
  }
}

void GossipProtocolBase::send_digest(NodeId to, MessagePtr msg,
                                     bool originated) {
  if (originated) {
    ++stats_.digests_originated;
  } else {
    ++stats_.digests_forwarded;
  }
  d_.send_overlay(to, std::move(msg));
}

void GossipProtocolBase::send_request(NodeId to, std::vector<EventId> ids) {
  EPICAST_ASSERT(!ids.empty());
  ++stats_.requests_sent;
  if (retry_hardening()) track_request(to, ids, /*attempt=*/0);
  d_.send_direct(to,
                 make_message<RecoveryRequestMessage>(d_.id(), std::move(ids)));
}

void GossipProtocolBase::track_request(NodeId to, std::vector<EventId> ids,
                                       std::uint32_t attempt) {
  double scale = 1.0;
  for (std::uint32_t i = 0; i < attempt; ++i) scale *= kRequestBackoff;
  const Duration wait =
      Duration::seconds(cfg_.request_timeout.to_seconds() * scale);
  const std::uint64_t epoch = restart_epoch_;
  d_.runtime().after(
      wait, [this, to, ids = std::move(ids), attempt, epoch]() {
        // Stale deadline: the node cold-restarted (epoch moved on) or is
        // currently down / stopped — a dead node neither counts timeouts
        // nor retries.
        if (epoch != restart_epoch_ || !active()) return;
        std::vector<EventId> missing;
        for (const EventId& id : ids) {
          if (!d_.has_seen(id)) missing.push_back(id);
        }
        if (missing.empty()) return;  // everything arrived in time
        ++stats_.request_timeouts;
        note_peer_timeout(to);
        if (attempt >= cfg_.request_max_retries) {
          ++stats_.requests_abandoned;
          return;
        }
        ++stats_.request_retries;
        ++stats_.requests_sent;
        track_request(to, missing, attempt + 1);
        d_.send_direct(to, make_message<RecoveryRequestMessage>(
                               d_.id(), std::move(missing)));
      });
}

void GossipProtocolBase::send_reply(NodeId to, std::vector<EventPtr> events) {
  EPICAST_ASSERT(!events.empty());
  ++stats_.replies_sent;
  d_.send_direct(
      to, make_message<RecoveryReplyMessage>(d_.id(), std::move(events)));
}

std::unique_ptr<RecoveryProtocol> make_recovery(Algorithm algorithm,
                                                Dispatcher& dispatcher,
                                                const GossipConfig& config) {
  switch (algorithm) {
    case Algorithm::NoRecovery:
      return std::make_unique<NoRecoveryProtocol>();
    case Algorithm::Push:
      return std::make_unique<PushProtocol>(dispatcher, config);
    case Algorithm::SubscriberPull:
    case Algorithm::PublisherPull:
    case Algorithm::CombinedPull:
    case Algorithm::RandomPull:
      return std::make_unique<PullProtocol>(algorithm, dispatcher, config);
  }
  EPICAST_UNREACHABLE("unknown algorithm");
}

bool algorithm_needs_routes(Algorithm algorithm) {
  return algorithm == Algorithm::PublisherPull ||
         algorithm == Algorithm::CombinedPull;
}

}  // namespace epicast
