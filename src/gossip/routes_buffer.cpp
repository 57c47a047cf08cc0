#include "epicast/gossip/routes_buffer.hpp"

#include <algorithm>

#include "epicast/common/assert.hpp"

namespace epicast {

void RoutesBuffer::update(NodeId source,
                          const std::vector<NodeId>& forward_route) {
  if (forward_route.empty()) return;
  EPICAST_ASSERT_MSG(forward_route.front() == source,
                     "recorded route must start at the publisher");
  routes_[source].assign(forward_route.rbegin(), forward_route.rend());
}

const std::vector<NodeId>& RoutesBuffer::route_to(NodeId source) const {
  const std::vector<NodeId>* route = routes_.find(source);
  return route == nullptr ? empty_ : *route;
}

std::vector<NodeId> RoutesBuffer::known_sources() const {
  std::vector<NodeId> out;
  out.reserve(routes_.size());
  routes_.for_each([&out](NodeId source, const std::vector<NodeId>&) {
    out.push_back(source);
  });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace epicast
