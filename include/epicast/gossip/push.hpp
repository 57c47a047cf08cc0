// epicast — the Push algorithm (§III-B).
//
// Proactive gossip with positive digests. Each round the gossiper picks a
// random pattern p from its *whole* subscription table (local subscriptions
// and routes alike — being on a route towards a subscriber is enough), puts
// the ids of all cached events matching p in a digest, and sends it along
// the dispatching tree as if it were an event matching p, except that each
// hop forwards only to a P_forward-random subset of the neighbours
// subscribed to p. A receiver subscribed to p requests the ids it has never
// seen over the out-of-band channel; the gossiper replies with the events.
//
// Push is the one reader of the β buffer's per-pattern id index, so its
// constructor asks the cache to keep it (EventCache::keep_pattern_index());
// the pull protocols' caches never build it.
#pragma once

#include "epicast/gossip/protocol.hpp"

namespace epicast {

class PushProtocol final : public GossipProtocolBase {
 public:
  PushProtocol(Dispatcher& dispatcher, GossipConfig config)
      : GossipProtocolBase(dispatcher, config) {
    cache_.keep_pattern_index();
  }

  [[nodiscard]] const char* name() const override { return "push"; }

  void on_restart(fault::RestartPolicy policy) override {
    GossipProtocolBase::on_restart(policy);
    saw_request_since_round_ = false;
  }

 protected:
  bool on_round() override;
  void handle_digest(NodeId from, const GossipMessage& msg) override;
  void handle_request(NodeId from, const RecoveryRequestMessage& msg) override;

 private:
  /// Requests received since the previous round — the adaptive-interval
  /// activity signal for a proactive protocol.
  bool saw_request_since_round_ = false;
};

}  // namespace epicast
