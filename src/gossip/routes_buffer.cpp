#include "epicast/gossip/routes_buffer.hpp"

#include <algorithm>

#include "epicast/common/assert.hpp"

namespace epicast {

void RoutesBuffer::update(NodeId source,
                          std::span<const NodeId> forward_route) {
  if (forward_route.empty()) return;
  EPICAST_ASSERT_MSG(forward_route.front() == source,
                     "recorded route must start at the publisher");
  Tail tail;  // every hop invalid
  // Walk back from the last forwarder; index 0 is the publisher.
  for (std::size_t i = 0; i < kTailHops && i + 1 < forward_route.size(); ++i) {
    tail[i] = forward_route[forward_route.size() - 1 - i];
  }
  routes_[source] = tail;
}

std::vector<NodeId> RoutesBuffer::route_to(NodeId source) const {
  std::vector<NodeId> route;
  const Tail* tail = routes_.find(source);
  if (tail == nullptr) return route;
  route.reserve(kTailHops + 1);
  for (NodeId hop : *tail) {
    if (hop.valid()) route.push_back(hop);
  }
  route.push_back(source);
  return route;
}

std::vector<NodeId> RoutesBuffer::known_sources() const {
  std::vector<NodeId> out;
  out.reserve(routes_.size());
  routes_.for_each([&out](NodeId source, const Tail&) {
    out.push_back(source);
  });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace epicast
