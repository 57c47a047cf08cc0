// epicast — shared machinery of the pull algorithms (§III-B).
//
// All pull variants are reactive: they detect losses from per-(source,
// pattern) sequence gaps, keep the missing triples in the Lost buffer, and
// gossip negative digests. They differ only in how a round *steers* the
// digest — towards subscribers, towards the publisher, randomly, or a
// probabilistic mix — so the detection, bookkeeping, and digest handling
// live here and every variant implements just its round.
//
// A dispatcher receiving any pull digest serves what it can from its cache
// (replying out-of-band directly to the gossiper) and forwards only the
// still-unresolved remainder — the "short-circuit" effect the paper credits
// for pull's low overhead (§IV-E).
#pragma once

#include "epicast/gossip/loss_detector.hpp"
#include "epicast/gossip/lost_buffer.hpp"
#include "epicast/gossip/protocol.hpp"
#include "epicast/gossip/routes_buffer.hpp"

namespace epicast {

class PullProtocolBase : public GossipProtocolBase {
 public:
  /// Largest sequence gap one observation reports as individual losses;
  /// larger gaps (e.g. after a long partition) are clamped to the most
  /// recent entries.
  static constexpr std::uint64_t kMaxGapReport = 256;
  /// Capacity of the Lost buffer.
  static constexpr std::size_t kLostCapacity = 8192;
  /// Publisher-based rounds send one digest per source (as in the paper);
  /// this many distinct sources, oldest pending loss first, are served per
  /// round. With one source per round a dispatcher cannot cycle through all
  /// N publishers within the loss TTL under the paper's high-load scenario;
  /// 2 restores the capacity balance (see DESIGN.md).
  static constexpr std::size_t kPublisherSourcesPerRound = 2;
  /// Publisher-bound digests traverse at most this many hops of the stored
  /// route (harvesting short-circuit hits near the gossiper), then jump
  /// out-of-band directly to the publisher. Reflects the paper's own
  /// observation that a stale route is likely to share "at least the first
  /// portion or, in the worst case, the publisher" (§III-B).
  static constexpr std::size_t kPublisherRouteHops = 2;

  PullProtocolBase(Dispatcher& dispatcher, GossipConfig config);

  /// Extends caching with loss detection (locally subscribed patterns
  /// only), Lost-buffer reconciliation, and route recording.
  void on_event(const EventPtr& event, const EventContext& ctx) override;

  /// Cold restarts additionally drop the pull bookkeeping: loss watermarks
  /// (losses across the outage become undetectable — the paper's
  /// first-contact rule applies anew), pending losses, and stored routes.
  void on_restart(fault::RestartPolicy policy) override;

  /// Warm-restart restore: beyond refilling the cache, seeds the loss
  /// watermarks from the snapshot's per-(source, pattern) sequence numbers.
  /// Without this the relaunched process would re-baseline on the first
  /// live event and the whole outage window would be undetectable.
  void preload_cache(const std::vector<EventPtr>& events) override;

  /// Anti-entropy via heartbeat watermarks: a neighbour's mark beyond this
  /// node's expectation for a locally subscribed stream reveals losses the
  /// gap detector cannot see — the tail of a stream, a lost stream head,
  /// or an outage window with no successor event. The difference (from the
  /// current watermark, or from sequence number 1 for a stream never heard
  /// from — unlike the paper's abstract setting, history is knowable here)
  /// goes into the Lost buffer for ordinary pull recovery, clamped by
  /// kMaxGapReport.
  void on_stream_marks(const std::vector<StreamMark>& marks) override;

  [[nodiscard]] const LostBuffer& lost() const { return lost_; }
  [[nodiscard]] const LossDetector& detector() const { return detector_; }
  [[nodiscard]] const RoutesBuffer& routes() const { return routes_; }

 protected:
  /// One subscriber-based round: a digest of losses for one locally
  /// subscribed pattern, routed along that pattern's subscription routes.
  /// Returns false if there was nothing to ask for.
  bool round_subscriber();

  /// One publisher-based round: a digest of losses from one source, routed
  /// back along the recorded route towards that publisher.
  bool round_publisher();

  /// Handles all pull digest kinds (subscriber, publisher, random): serve
  /// from cache, reply, forward the remainder.
  void handle_digest(NodeId from, const GossipMessage& msg) override;

  LossDetector detector_;
  LostBuffer lost_;
  RoutesBuffer routes_;

 private:
  void handle_subscriber_digest(NodeId from,
                                const SubscriberPullDigestMessage& msg);
  void handle_publisher_digest(const PublisherPullDigestMessage& msg);
  void handle_random_digest(NodeId from, const RandomPullDigestMessage& msg);

  /// Sends a publisher-bound digest to the next hop of its route: over the
  /// overlay if still a neighbour, out-of-band otherwise (the recorded
  /// route may predate a reconfiguration).
  void forward_towards_publisher(NodeId gossiper, NodeId source,
                                 std::vector<LostEntryInfo> wanted,
                                 std::vector<NodeId> route, bool originated);

  /// Retry hardening: schedules a silence check for an originated digest —
  /// if every wanted entry is still lost after the request timeout, the
  /// exchange produced nothing and each target is noted as silent.
  void watch_digest(const std::vector<NodeId>& targets,
                    const std::vector<LostEntryInfo>& wanted);
};

}  // namespace epicast
