#include "epicast/net/reconfigurator.hpp"

#include <utility>

#include "epicast/common/assert.hpp"
#include "epicast/common/logging.hpp"

namespace epicast {

Reconfigurator::Reconfigurator(runtime::Runtime& rt, Topology& topology,
                               ReconfigConfig config)
    : rt_(rt), topology_(topology), config_(config), rng_(rt.fork_rng()) {
  EPICAST_ASSERT(config_.interval > Duration::zero());
  EPICAST_ASSERT(!config_.repair_time.is_negative());
}

void Reconfigurator::start() {
  EPICAST_ASSERT_MSG(!timer_.running(), "reconfigurator already started");
  Duration first = config_.start_at - rt_.now();
  if (first.is_negative()) first = Duration::zero();
  timer_ = rt_.every(first, config_.interval, [this]() { break_one(); });
}

void Reconfigurator::stop() { timer_.stop(); }

void Reconfigurator::force_reconfiguration() { break_one(); }

void Reconfigurator::break_one() {
  const auto links = topology_.links();
  if (links.empty()) {
    EPICAST_WARN("reconfigurator: no link left to break");
    return;
  }
  const Link victim = links[rng_.next_below(links.size())];
  topology_.remove_link(victim.a, victim.b);
  ++breaks_;
  ++pending_;
  EPICAST_DEBUG("reconfig: broke link " << victim.a.value() << "-"
                                        << victim.b.value() << " at "
                                        << to_string(rt_.now()));
  if (on_break_) on_break_(victim);
  rt_.after(config_.repair_time, [this, victim]() { repair(victim); });
}

std::optional<NodeId> Reconfigurator::pick_attachable(NodeId anchor) {
  std::vector<NodeId> candidates;
  for (NodeId n : topology_.component_of(anchor)) {
    if (topology_.degree(n) < topology_.max_degree() &&
        (!node_filter_ || node_filter_(n))) {
      candidates.push_back(n);
    }
  }
  if (candidates.empty()) return std::nullopt;
  return candidates[rng_.next_below(candidates.size())];
}

bool Reconfigurator::side_blocked(NodeId anchor) const {
  bool headroom = false;
  for (NodeId n : topology_.component_of(anchor)) {
    if (topology_.degree(n) < topology_.max_degree()) {
      headroom = true;
      if (node_filter_(n)) return false;  // an eligible candidate exists
    }
  }
  return headroom;
}

void Reconfigurator::repair(Link removed) {
  EPICAST_ASSERT(pending_ > 0);
  if (node_filter_ &&
      !topology_.distance(removed.a, removed.b).has_value() &&
      (side_blocked(removed.a) || side_blocked(removed.b))) {
    // The only attachable node(s) on a side are currently crashed: installing
    // the link now would wire the tree to a dead endpoint. Hold the repair
    // (pending_ stays up, the partition persists) and re-pick once the
    // endpoint is back — or another node frees up headroom.
    ++deferred_repairs_;
    EPICAST_DEBUG("reconfig: repair of " << removed.a.value() << "-"
                                         << removed.b.value()
                                         << " deferred (endpoint down)");
    rt_.after(config_.repair_time, [this, removed]() { repair(removed); });
    return;
  }
  --pending_;
  ++repairs_;

  Repair result{removed, std::nullopt};
  if (topology_.distance(removed.a, removed.b).has_value()) {
    // A concurrent repair already reconnected the two sides.
    ++skipped_repairs_;
  } else {
    const auto left = pick_attachable(removed.a);
    const auto right = pick_attachable(removed.b);
    if (left && right) {
      topology_.add_link(*left, *right);
      result.added = Link{*left, *right};
      EPICAST_DEBUG("reconfig: repaired with link "
                    << left->value() << "-" << right->value() << " at "
                    << to_string(rt_.now()));
    } else {
      // Every node of a component sits at the degree cap. Tree churn alone
      // never produces this for caps >= 2 (a tree component always has a
      // leaf), but externally grown topologies or a cap of 1 can; leave
      // the partition to a later repair instead of failing the run.
      ++exhausted_repairs_;
      EPICAST_WARN("reconfig: cannot rejoin "
                   << removed.a.value() << "|" << removed.b.value()
                   << " — a component has no node below the degree cap");
    }
  }
  if (on_repair_) on_repair_(result);
}

}  // namespace epicast
