#include "epicast/pubsub/subscription_table.hpp"

#include <algorithm>

#include "epicast/common/assert.hpp"

namespace epicast {

void SubscriptionTable::reserve_universe(std::uint32_t universe,
                                         Arena* arena) {
  arena_ = arena;
  universe_hint_ = universe;
  if (arena != nullptr) {
    known_mask_ = PatternSet(universe, arena);
    local_mask_ = PatternSet(universe, arena);
  } else {
    known_mask_.reserve(universe);
    local_mask_.reserve(universe);
  }
}

SubscriptionTable::NeighborRoutes* SubscriptionTable::find_routes(
    NodeId neighbor) {
  auto it = std::lower_bound(routes_.begin(), routes_.end(), neighbor,
                             [](const NeighborRoutes& r, NodeId n) {
                               return r.neighbor < n;
                             });
  if (it == routes_.end() || it->neighbor != neighbor) return nullptr;
  return &*it;
}

const SubscriptionTable::NeighborRoutes* SubscriptionTable::find_routes(
    NodeId neighbor) const {
  return const_cast<SubscriptionTable*>(this)->find_routes(neighbor);
}

void SubscriptionTable::reconcile_known(Pattern p) {
  if (local_mask_.test(p)) return;
  for (const NeighborRoutes& r : routes_) {
    if (r.patterns.test(p)) return;
  }
  known_mask_.clear(p);
}

bool SubscriptionTable::add_local(Pattern p) {
  if (!local_mask_.set(p)) return false;
  known_mask_.set(p);
  return true;
}

bool SubscriptionTable::remove_local(Pattern p) {
  if (!local_mask_.clear(p)) return false;
  reconcile_known(p);
  return true;
}

SubscriptionTable::NeighborRoutes& SubscriptionTable::routes_to(
    NodeId next_hop) {
  EPICAST_ASSERT(next_hop.valid());
  auto it = std::lower_bound(routes_.begin(), routes_.end(), next_hop,
                             [](const NeighborRoutes& r, NodeId n) {
                               return r.neighbor < n;
                             });
  if (it == routes_.end() || it->neighbor != next_hop) {
    NeighborRoutes fresh{next_hop,
                         universe_hint_ != 0
                             ? PatternSet(universe_hint_, arena_)
                             : PatternSet{}};
    it = routes_.insert(it, std::move(fresh));
  }
  return *it;
}

bool SubscriptionTable::add_route(Pattern p, NodeId next_hop) {
  if (!routes_to(next_hop).patterns.set(p)) return false;
  known_mask_.set(p);
  return true;
}

void SubscriptionTable::add_routes(NodeId next_hop,
                                   const PatternSet& patterns) {
  if (patterns.none()) return;
  routes_to(next_hop).patterns.set_all(patterns);
  known_mask_.set_all(patterns);
}

bool SubscriptionTable::remove_route(Pattern p, NodeId next_hop) {
  NeighborRoutes* r = find_routes(next_hop);
  if (r == nullptr || !r->patterns.clear(p)) return false;
  if (r->patterns.none()) {
    routes_.erase(routes_.begin() + (r - routes_.data()));
  }
  reconcile_known(p);
  return true;
}

void SubscriptionTable::remove_neighbor(NodeId neighbor) {
  NeighborRoutes* r = find_routes(neighbor);
  if (r == nullptr) return;
  const PatternSet dropped = std::move(r->patterns);
  routes_.erase(routes_.begin() + (r - routes_.data()));
  dropped.for_each([this](Pattern p) { reconcile_known(p); });
}

void SubscriptionTable::clear_routes() {
  routes_.clear();
  known_mask_ = local_mask_;
}

bool SubscriptionTable::has_local(Pattern p) const {
  return local_mask_.test(p);
}

bool SubscriptionTable::has_route(Pattern p, NodeId next_hop) const {
  const NeighborRoutes* r = find_routes(next_hop);
  return r != nullptr && r->patterns.test(p);
}

bool SubscriptionTable::knows(Pattern p) const { return known_mask_.test(p); }

bool SubscriptionTable::matches_local(const EventData& event) const {
  return local_mask_.intersects(event.pattern_mask());
}

std::vector<NodeId> SubscriptionTable::route_targets(const EventData& event,
                                                     NodeId exclude) const {
  std::vector<NodeId> out;
  route_targets_into(event, exclude, out);
  return out;
}

void SubscriptionTable::route_targets_into(const EventData& event,
                                           NodeId exclude,
                                           std::vector<NodeId>& out) const {
  out.clear();
  if (!known_mask_.intersects(event.pattern_mask())) {
    return;  // mask fast-reject: no pattern of this event is known here
  }
  // Ascending-neighbour iteration emits the same sorted, deduped union the
  // per-pattern layout produced via sort + unique.
  for (const NeighborRoutes& r : routes_) {
    if (r.neighbor != exclude && r.patterns.intersects(event.pattern_mask())) {
      out.push_back(r.neighbor);
    }
  }
}

std::vector<NodeId> SubscriptionTable::route_targets(Pattern p,
                                                     NodeId exclude) const {
  std::vector<NodeId> out;
  route_targets_into(p, exclude, out);
  return out;
}

void SubscriptionTable::route_targets_into(Pattern p, NodeId exclude,
                                           std::vector<NodeId>& out) const {
  out.clear();
  if (!known_mask_.test(p)) return;
  for (const NeighborRoutes& r : routes_) {
    if (r.neighbor != exclude && r.patterns.test(p)) out.push_back(r.neighbor);
  }
}

std::vector<Pattern> SubscriptionTable::known_patterns() const {
  std::vector<Pattern> out;
  known_patterns_into(out);
  return out;
}

void SubscriptionTable::known_patterns_into(std::vector<Pattern>& out) const {
  out.clear();
  known_mask_.for_each([&out](Pattern p) { out.push_back(p); });
}

std::size_t SubscriptionTable::known_pattern_count() const {
  return known_mask_.count();
}

Pattern SubscriptionTable::known_pattern_at(std::size_t k) const {
  return known_mask_.nth(k);
}

std::vector<Pattern> SubscriptionTable::local_patterns() const {
  std::vector<Pattern> out;
  local_patterns_into(out);
  return out;
}

void SubscriptionTable::local_patterns_into(std::vector<Pattern>& out) const {
  out.clear();
  local_mask_.for_each([&out](Pattern p) { out.push_back(p); });
}

std::size_t SubscriptionTable::entry_count() const {
  std::size_t n = local_mask_.count();
  for (const NeighborRoutes& r : routes_) n += r.patterns.count();
  return n;
}

std::size_t SubscriptionTable::memory_bytes() const {
  std::size_t n = known_mask_.memory_bytes() + local_mask_.memory_bytes();
  n += routes_.capacity() * sizeof(NeighborRoutes);
  for (const NeighborRoutes& r : routes_) n += r.patterns.memory_bytes();
  return n;
}

}  // namespace epicast
