// epicast — the Routes buffer (§III-B, Publisher-Based Pull).
//
// Publisher-based pull needs a way back to each publisher. Event messages
// record the dispatchers they traverse; for every source, this buffer keeps
// the way back learned from the most recently observed route ("e.g., based
// on the route information stored in the event most recently received from
// it"). The stored route may be stale after a reconfiguration — the
// algorithm tolerates that, since at worst the final element (the publisher
// itself) is still right.
//
// A publisher-bound digest visits only the kTailHops upstream hops nearest
// the gossiper and then jumps to the publisher, so that tail is all the
// buffer stores: per source, the last kTailHops forwarders of the route,
// inline in the common FlatHashMap's value. An update copies at most
// kTailHops ids and never allocates once the source is known.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "epicast/common/flat_hash_map.hpp"
#include "epicast/common/ids.hpp"

namespace epicast {

class RoutesBuffer {
 public:
  /// Upstream hops a publisher-bound digest visits (harvesting
  /// short-circuit hits near the gossiper) before it jumps out-of-band
  /// directly to the publisher. Reflects the paper's own observation that
  /// a stale route is likely to share "at least the first portion or, in
  /// the worst case, the publisher" (§III-B).
  static constexpr std::size_t kTailHops = 2;

  /// Records the route of an event received from `source`. `forward_route`
  /// is as carried by the event message: publisher first, last forwarder
  /// last (the receiving dispatcher itself is not included). Empty routes
  /// are ignored.
  void update(NodeId source, std::span<const NodeId> forward_route);

  /// The way back to `source`: the most recent upstream hop, the hop before
  /// it (at most kTailHops of them), then the publisher itself. Empty if
  /// unknown.
  [[nodiscard]] std::vector<NodeId> route_to(NodeId source) const;

  [[nodiscard]] bool knows(NodeId source) const {
    return routes_.contains(source);
  }
  [[nodiscard]] std::size_t size() const { return routes_.size(); }

  /// Sources with a known route, sorted (deterministic sampling).
  [[nodiscard]] std::vector<NodeId> known_sources() const;

  /// Forgets every stored route (cold restart); routes re-learn from the
  /// next events received.
  void clear() { routes_.clear(); }

 private:
  /// A source's upstream hops, most recent first; NodeId::invalid() past
  /// the end when the route had fewer than kTailHops forwarders.
  using Tail = std::array<NodeId, kTailHops>;

  FlatHashMap<NodeId, Tail, NodeIdKey> routes_;
};

}  // namespace epicast
