#include "epicast/fault/controller.hpp"

#include <utility>

#include "epicast/common/assert.hpp"
#include "epicast/common/logging.hpp"

namespace epicast::fault {

FaultController::FaultController(runtime::Runtime& rt, Transport& transport,
                                 PubSubNetwork& network, FaultPlan plan,
                                 FaultControllerConfig config)
    : rt_(rt),
      transport_(transport),
      network_(network),
      plan_(std::move(plan)),
      config_(config),
      crashed_(transport.topology().node_count(), 0) {
  plan_.validate();
  // One RNG stream per plan process, forked in plan order: the stream a
  // process consumes is independent of what the other processes do.
  churns_.reserve(plan_.churns.size());
  for (const ChurnSpec& c : plan_.churns) {
    churns_.push_back(ChurnState{c, rt_.fork_rng(), runtime::PeriodicTimer{}});
  }
  const std::uint32_t nodes = transport.topology().node_count();
  bursts_.reserve(plan_.bursts.size());
  for (const BurstSpec& b : plan_.bursts) {
    BurstState state{b, {}, {}, false};
    // Per-sender streams, forked in node order from the process stream: the
    // chain draws a sender consumes depend only on that sender's traffic.
    Rng process = rt_.fork_rng();
    state.senders.reserve(nodes);
    for (std::uint32_t i = 0; i < nodes; ++i) {
      state.senders.push_back(process.fork());
    }
    state.channels.resize(nodes);
    bursts_.push_back(std::move(state));
  }
  partitions_.reserve(plan_.partitions.size());
  for (const PartitionSpec& p : plan_.partitions) {
    partitions_.push_back(PartitionState{p, rt_.fork_rng(), {}});
  }
  transport_.add_fault_filter(
      [this](NodeId from, NodeId to, const Message& msg, bool overlay) {
        return allow(from, to, msg, overlay);
      });
}

bool FaultController::allow(NodeId from, NodeId to, const Message& msg,
                            bool overlay) {
  // A crashed node neither sends nor receives, on either channel.
  if (crashed_[from.value()] != 0 || crashed_[to.value()] != 0) {
    ++stats_.crash_drops;
    return false;
  }
  if (!overlay) return true;
  bool lost = false;
  for (BurstState& b : bursts_) {
    if (!b.active) continue;
    auto& channels = b.channels[from.value()];
    auto [it, created] = channels.try_emplace(to.value(), b.spec.channel,
                                              b.senders[from.value()].fork());
    // Advance every active chain even if an earlier one already lost the
    // message (and even for lossless control traffic): the chain state is a
    // property of the link, not of who happens to be charged for a drop.
    if (it->second.transmit_lost()) lost = true;
  }
  if (lost && msg.message_class() != MessageClass::Control) {
    ++stats_.burst_drops;
    return false;
  }
  return true;
}

void FaultController::at_time(SimTime at, runtime::TimerService::Callback cb) {
  Duration delay = at - rt_.now();
  if (delay.is_negative()) delay = Duration::zero();
  rt_.after(delay, std::move(cb));
}

void FaultController::start() {
  for (ChurnState& c : churns_) {
    // First crash one period after the window opens.
    Duration first = (config_.plan_origin + c.spec.start + c.spec.period) -
                     rt_.now();
    if (first.is_negative()) first = Duration::zero();
    c.timer = rt_.every(first, c.spec.period,
                        [this, &c]() { churn_tick(c); });
  }
  for (BurstState& b : bursts_) {
    at_time(config_.plan_origin + b.spec.start, [this, &b]() {
      b.active = true;
      // Reopening windows start from the Good state; reset consumes no
      // randomness.
      for (auto& channels : b.channels) {
        for (auto& [key, channel] : channels) channel.reset();
      }
    });
    if (b.spec.stop.has_value()) {
      at_time(config_.plan_origin + *b.spec.stop, [this, &b]() {
        b.active = false;
        note_heal();
      });
    }
  }
  for (const SlowSpec& s : plan_.slows) {
    at_time(config_.plan_origin + s.start, [this, factor = s.factor]() {
      transport_.link_model().set_bandwidth_scale(factor);
      ++stats_.slow_windows;
    });
    if (s.stop.has_value()) {
      at_time(config_.plan_origin + *s.stop, [this]() {
        transport_.link_model().set_bandwidth_scale(1.0);
        note_heal();
      });
    }
  }
  for (PartitionState& p : partitions_) {
    at_time(config_.plan_origin + p.spec.at,
            [this, &p]() { apply_partition(p); });
    at_time(config_.plan_origin + p.spec.heal,
            [this, &p]() { heal_partition(p); });
  }
}

void FaultController::churn_tick(ChurnState& churn) {
  if (churn.spec.stop.has_value() &&
      rt_.now() > config_.plan_origin + *churn.spec.stop) {
    churn.timer.stop();
    return;
  }
  alive_scratch_.clear();
  for (std::uint32_t i = 0; i < crashed_.size(); ++i) {
    if (crashed_[i] == 0) alive_scratch_.push_back(i);
  }
  if (alive_scratch_.empty()) return;  // everything is down already
  const NodeId victim{
      alive_scratch_[churn.rng.next_below(alive_scratch_.size())]};
  crash(victim, churn.spec);
}

void FaultController::crash(NodeId victim, const ChurnSpec& spec) {
  EPICAST_ASSERT(crashed_[victim.value()] == 0);
  crashed_[victim.value()] = 1;
  ++stats_.crashes;
  EPICAST_DEBUG("fault: node " << victim.value() << " crashed at "
                               << to_string(rt_.now()));
  if (RecoveryProtocol* r = network_.node(victim).recovery()) r->stop();
  rt_.after(spec.downtime, [this, victim, policy = spec.policy]() {
    restart(victim, policy);
  });
}

void FaultController::restart(NodeId node, RestartPolicy policy) {
  EPICAST_ASSERT(crashed_[node.value()] != 0);
  crashed_[node.value()] = 0;
  ++stats_.restarts;
  if (policy == RestartPolicy::Cold) ++stats_.cold_restarts;
  EPICAST_DEBUG("fault: node " << node.value() << " restarted ("
                               << to_string(policy) << ") at "
                               << to_string(rt_.now()));
  if (RecoveryProtocol* r = network_.node(node).recovery()) {
    r->on_restart(policy);
    r->start();
  }
  note_heal();
}

void FaultController::apply_partition(PartitionState& partition) {
  Topology& topology = transport_.topology();
  auto links = topology.links();
  for (std::uint32_t i = 0; i < partition.spec.links && !links.empty(); ++i) {
    const std::size_t k = partition.rng.next_below(links.size());
    const Link victim = links[k];
    links.erase(links.begin() + static_cast<std::ptrdiff_t>(k));
    topology.remove_link(victim.a, victim.b);
    partition.removed.push_back(victim);
    ++stats_.partitions_applied;
    EPICAST_DEBUG("fault: partition removed link "
                  << victim.a.value() << "-" << victim.b.value() << " at "
                  << to_string(rt_.now()));
  }
}

void FaultController::heal_partition(PartitionState& partition) {
  Topology& topology = transport_.topology();
  for (const Link& link : partition.removed) {
    // A concurrent Reconfigurator repair may have reconnected the two sides
    // or used up their degree headroom; restoring the link then would
    // create a cycle or violate the cap — skip it, the network is whole.
    if (topology.distance(link.a, link.b).has_value() ||
        topology.degree(link.a) >= topology.max_degree() ||
        topology.degree(link.b) >= topology.max_degree()) {
      ++stats_.heal_skipped_links;
      continue;
    }
    topology.add_link(link.a, link.b);
    ++stats_.partitions_healed;
  }
  partition.removed.clear();
  note_heal();
  if (heal_listener_) heal_listener_();
}

FaultStats FaultController::stats() const {
  FaultStats total = stats_;
  for (const BurstState& b : bursts_) {
    for (const auto& channels : b.channels) {
      for (const auto& [key, channel] : channels) {
        total.bursts_entered += channel.stats().bursts_entered;
      }
    }
  }
  return total;
}

std::vector<FaultEpoch> FaultController::epoch_windows() const {
  std::vector<FaultEpoch> out;
  const auto begin_s = [&](Duration start) {
    return (config_.plan_origin + start).nanos_since_start() / 1e9;
  };
  const auto end_s = [&](const std::optional<Duration>& stop, Duration tail) {
    const SimTime end = stop.has_value()
                            ? config_.plan_origin + *stop + tail
                            : config_.end_time;
    return (end < config_.end_time ? end : config_.end_time)
               .nanos_since_start() /
           1e9;
  };
  for (const ChurnSpec& c : plan_.churns) {
    // The window's tail includes the last downtime: events published while
    // the final victim is still down are part of the churn epoch.
    out.push_back(FaultEpoch{"churn", begin_s(c.start),
                             end_s(c.stop, c.downtime), 0, 0, 0});
  }
  for (const BurstSpec& b : plan_.bursts) {
    out.push_back(FaultEpoch{"burst", begin_s(b.start),
                             end_s(b.stop, Duration::zero()), 0, 0, 0});
  }
  for (const SlowSpec& s : plan_.slows) {
    out.push_back(FaultEpoch{"slow", begin_s(s.start),
                             end_s(s.stop, Duration::zero()), 0, 0, 0});
  }
  for (const PartitionSpec& p : plan_.partitions) {
    out.push_back(FaultEpoch{"partition", begin_s(p.at),
                             end_s(p.heal, Duration::zero()), 0, 0, 0});
  }
  return out;
}

}  // namespace epicast::fault
