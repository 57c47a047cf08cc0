// epicast — the pull algorithms (§III-B, §IV).
//
// All pull variants are reactive: they detect losses from per-(source,
// pattern) sequence gaps, keep the missing triples in the Lost buffer, and
// gossip negative digests. They differ only in where a round *steers* the
// digest, so one class runs all four and switches on its Algorithm in
// on_round():
//
//  * subscriber-based pull: a locally subscribed pattern with pending
//    losses, routed along that pattern's subscription routes — weak
//    exactly where the paper says, when a pattern has few subscribers;
//  * publisher-based pull: the losses of one source, sent back along the
//    last hops of the route its events last travelled (RoutesBuffer) and
//    then straight to the publisher, which caches everything it publishes
//    and is the backstop;
//  * combined pull: publisher-based with probability P_source,
//    subscriber-based otherwise — each wins where the other is weak;
//  * random pull, the control: the same per-round scope as the steered
//    pulls, sent to random neighbours, showing that deciding *where* to
//    gossip is worth the effort ("random push" is omitted, as in the
//    paper, because its performance is extremely poor).
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

class PullProtocol final : public GossipProtocolBase {
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
  // How many upstream hops a publisher-bound digest visits before it jumps
  // to the publisher is RoutesBuffer::kTailHops: the buffer stores only
  // that tail of each route.

  /// `algorithm` is one of the four pull algorithms.
  PullProtocol(Algorithm algorithm, Dispatcher& dispatcher,
               GossipConfig config);

  [[nodiscard]] const char* name() const override {
    return to_string(algorithm_);
  }

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
  /// One round of this algorithm's steering.
  bool on_round() override;

  /// Handles all pull digest kinds (subscriber, publisher, random): serve
  /// from cache, reply, forward the remainder.
  void handle_digest(NodeId from, const GossipMessage& msg) override;

 private:
  /// One subscriber-based round: a digest of losses for one locally
  /// subscribed pattern, routed along that pattern's subscription routes.
  /// Returns false if there was nothing to ask for.
  bool round_subscriber();

  /// One publisher-based round: a digest of losses from one source, routed
  /// back along the recorded route towards that publisher.
  bool round_publisher();

  /// One random-pull round: the losses of one pattern, to a P_forward
  /// subset of all neighbours.
  bool round_random();

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

  Algorithm algorithm_;
  LossDetector detector_;
  LostBuffer lost_;
  RoutesBuffer routes_;
};

}  // namespace epicast
