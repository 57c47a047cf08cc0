// epicast — the Routes buffer (§III-B, Publisher-Based Pull).
//
// Publisher-based pull needs a way back to each publisher. Event messages
// record the dispatchers they traverse; for every source, this buffer keeps
// the reverse of the most recently observed route ("e.g., based on the route
// information stored in the event most recently received from it"). The
// stored route may be stale after a reconfiguration — the algorithm
// tolerates that, since at worst the final element (the publisher itself)
// is still right.
//
// update() runs for every event a pull node receives. The routes sit in
// the common FlatHashMap keyed by source, and each update assigns into the
// source's stored vector, so once a source's route length has been seen
// an update allocates nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "epicast/common/flat_hash_map.hpp"
#include "epicast/common/ids.hpp"

namespace epicast {

class RoutesBuffer {
 public:
  /// Records the route of an event received from `source`. `forward_route`
  /// is as carried by the event message: publisher first, last forwarder
  /// last (the receiving dispatcher itself is not included). Empty routes
  /// are ignored.
  void update(NodeId source, const std::vector<NodeId>& forward_route);

  /// The way back to `source`: first the most recent upstream hop, …,
  /// finally the publisher itself. Empty if unknown.
  [[nodiscard]] const std::vector<NodeId>& route_to(NodeId source) const;

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
  FlatHashMap<NodeId, std::vector<NodeId>, NodeIdKey> routes_;
  std::vector<NodeId> empty_;
};

}  // namespace epicast
