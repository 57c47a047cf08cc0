#include "epicast/scenario/runner.hpp"

#include <chrono>
#include <memory>
#include <vector>

#include "epicast/common/assert.hpp"
#include "epicast/fault/controller.hpp"
#include "epicast/gossip/protocol.hpp"
#include "epicast/metrics/delivery_tracker.hpp"
#include "epicast/net/reconfigurator.hpp"
#include "epicast/oracle/checks.hpp"
#include "epicast/net/topology.hpp"
#include "epicast/net/transport.hpp"
#include "epicast/pubsub/network.hpp"
#include "epicast/scenario/workload.hpp"
#include "epicast/sim/simulator.hpp"

namespace epicast {
namespace {

/// Counts distinct subscribers (≠ publisher) matching an event's content.
/// Reused across publishes via an epoch-stamped scratch array — O(content ×
/// subscribers-per-pattern) per call, no allocation.
class ExpectedReceiverCounter {
 public:
  ExpectedReceiverCounter(const Workload& workload, std::uint32_t nodes,
                          std::uint32_t pattern_universe) {
    by_pattern_.resize(pattern_universe);
    for (std::uint32_t i = 0; i < nodes; ++i) {
      for (Pattern p : workload.subscriptions_of(NodeId{i})) {
        by_pattern_[p.value()].push_back(NodeId{i});
      }
    }
    stamp_.assign(nodes, 0);
  }

  std::uint32_t count(const EventData& event) {
    ++epoch_;
    std::uint32_t n = 0;
    for (const PatternSeq& ps : event.patterns()) {
      for (NodeId sub : by_pattern_[ps.pattern.value()]) {
        if (sub == event.source()) continue;
        if (stamp_[sub.value()] == epoch_) continue;
        stamp_[sub.value()] = epoch_;
        ++n;
      }
    }
    return n;
  }

 private:
  std::vector<std::vector<NodeId>> by_pattern_;
  std::vector<std::uint64_t> stamp_;
  std::uint64_t epoch_ = 0;
};

}  // namespace

ScenarioResult run_scenario(const ScenarioConfig& cfg) {
  cfg.validate();
  const auto wall_start = std::chrono::steady_clock::now();

  Simulator sim(cfg.seed);
  sim.profiler().enable_timing(cfg.profile_hotpath);

  Rng topo_rng = sim.fork_rng();
  // The Tree path goes through random_tree with the classic cap — the same
  // call and draw sequence as before overlays existed, so the paper-scale
  // figures stay bit-identical.
  Topology topology = make_overlay(
      cfg.overlay, cfg.nodes,
      cfg.overlay == OverlayKind::Tree ? ScenarioConfig::kTreeMaxDegree
                                       : cfg.overlay_degree,
      cfg.ws_rewire, topo_rng);
  // The §II floods converge only on a tree: on a cycle a subscription
  // reaches a node along several paths, and which copy arrives first
  // decides its route, so the tables would fail the oracle check below
  // after the whole flood phase had run. Judged on the built overlay, not
  // its kind: Barabási–Albert at degree ≤ 3 is a tree. Every overlay
  // make_overlay builds is connected, so N-1 links make it a tree.
  EPICAST_ASSERT_MSG(
      cfg.bootstrap != ScenarioConfig::SubscriptionBootstrap::Flood ||
          topology.link_count() == cfg.nodes - 1,
      "flood subscription bootstrap needs a tree overlay; use "
      "--bootstrap=oracle (SubscriptionBootstrap::Oracle) on a cyclic one");

  // Bandwidth, propagation and the direct channel's latency band keep the
  // LinkParams/TransportConfig defaults: the paper's 10 Mbit/s setup.
  TransportConfig tc;
  tc.link.loss_rate = cfg.link_error_rate;
  tc.direct_loss_rate = cfg.effective_oob_loss();
  tc.sizing = cfg.sizing_mode;
  Transport transport(sim, topology, tc);

  MessageStats stats(cfg.nodes, cfg.sizing_mode);
  transport.add_observer(stats);

  DispatcherConfig dc;
  dc.default_payload_bytes = cfg.event_payload_bytes;
  dc.record_routes = algorithm_needs_routes(cfg.algorithm);
  PubSubNetwork network(transport, dc);

  // Conformance oracles: pure observers (no sim events, no RNG draws), so
  // enabling them leaves the run bit-identical.
  std::unique_ptr<oracle::OracleSuite> oracles;
  if (cfg.oracles) {
    oracles = std::make_unique<oracle::OracleSuite>(
        oracle::OracleContext{&sim, &network, cfg.sizing_mode},
        oracle::FailMode::Abort);
    oracle::add_default_oracles(*oracles);
    transport.add_observer(*oracles);
  }

  Workload workload(sim, network, cfg);

  // Phase 1: subscriptions become routing state. Flood bootstrap simulates
  // the §II forwarding floods and verifies them against the global oracle;
  // Oracle bootstrap installs the converged tables directly (they match the
  // oracle by construction — at 10⁴⁺ nodes the floods and the verification
  // would each dwarf the measured run).
  workload.issue_subscriptions();
  if (cfg.bootstrap == ScenarioConfig::SubscriptionBootstrap::Oracle) {
    network.rebuild_routes();
    sim.run_until(cfg.publish_start());
  } else {
    sim.run_until(cfg.publish_start());
    EPICAST_ASSERT_MSG(network.routes_consistent(),
                       "subscription forwarding left inconsistent routes");
  }

  // Phase 2 wiring: recovery protocols, metrics, churn, publishing.
  network.for_each([&](Dispatcher& d) {
    d.set_recovery(make_recovery(cfg.algorithm, d, cfg.gossip));
    d.recovery()->start();
  });

  DeliveryTracker tracker(cfg.bucket_width, cfg.recovery_horizon);
  tracker.set_measure_window(cfg.window_start(), cfg.window_end());
  SimTime last_recovery_at = SimTime::zero();
  ExpectedReceiverCounter expected(workload, cfg.nodes, cfg.pattern_universe);
  oracle::OracleSuite* const suite = oracles.get();
  network.set_delivery_listener(
      [&, suite](NodeId node, const EventPtr& event, bool recovered) {
        if (suite != nullptr) suite->notify_delivery(node, event, recovered);
        if (recovered && last_recovery_at < sim.now()) {
          last_recovery_at = sim.now();
        }
        tracker.on_delivery(node, event->id(), sim.now(), recovered);
      });
  workload.set_publish_listener([&, suite](const EventPtr& event) {
    if (suite != nullptr) suite->notify_publish(event);
    tracker.on_publish(event->id(), sim.now(), expected.count(*event));
  });

  // Exact all-pairs distances run a BFS from every node, 64 at a time
  // (bit-parallel); past 10⁴ nodes sample a stride of sources.
  const double mean_distance =
      topology.mean_pairwise_distance(cfg.nodes > 10000 ? 256 : 0);

  Reconfigurator* churn = nullptr;
  std::unique_ptr<Reconfigurator> churn_owner;
  if (cfg.route_repair == ScenarioConfig::RouteRepair::Protocol) {
    network.enable_protocol_reconfiguration();
  }
  if (cfg.reconfiguration_interval) {
    ReconfigConfig rc;
    rc.interval = *cfg.reconfiguration_interval;
    rc.start_at = cfg.publish_start() + rc.interval;
    churn_owner = std::make_unique<Reconfigurator>(sim, topology, rc);
    if (cfg.route_repair == ScenarioConfig::RouteRepair::Oracle) {
      churn_owner->set_repair_listener(
          [&network](const Reconfigurator::Repair&) {
            network.rebuild_routes();
          });
    }
    churn_owner->start();
    churn = churn_owner.get();
  }

  // Fault injection. The controller forks its RNG streams last, so an empty
  // plan (no controller at all) leaves every other stream — and the run —
  // bit-identical to a fault-free build.
  std::unique_ptr<fault::FaultController> faults;
  if (!cfg.faults.empty()) {
    faults = std::make_unique<fault::FaultController>(
        sim, transport, network, cfg.faults,
        fault::FaultControllerConfig{cfg.publish_start(), cfg.end_time()});
    if (churn != nullptr) {
      // A Reconfigurator repair must not attach a link to a crashed node —
      // defer it until the victim restarts.
      churn->set_node_filter(
          [f = faults.get()](NodeId n) { return !f->is_crashed(n); });
    }
    if (cfg.route_repair == ScenarioConfig::RouteRepair::Oracle) {
      faults->set_heal_listener([&network]() { network.rebuild_routes(); });
    }
    faults->start();
  }

  workload.start_publishing(cfg.publish_start(), cfg.end_time());

  // Traffic snapshots bracketing the measurement window.
  MessageStats::Snapshot window_begin;
  sim.at(cfg.window_start(),
         [&window_begin, &stats]() { window_begin = stats.snapshot(); });
  MessageStats::Snapshot window_close;
  sim.at(cfg.window_end(),
         [&window_close, &stats]() { window_close = stats.snapshot(); });

  sim.run_until(cfg.end_time());

  // -- collect ----------------------------------------------------------------
  ScenarioResult result;
  result.delivery_rate = tracker.delivery_rate();
  result.eventual_delivery_rate = tracker.eventual_delivery_rate();
  result.receivers_per_event = tracker.receivers_per_event();
  result.mean_recovery_latency_s = tracker.mean_recovery_latency();
  result.recovery_latency_p50_s = tracker.recovery_latency_quantile(0.5);
  result.recovery_latency_p90_s = tracker.recovery_latency_quantile(0.9);
  result.recovery_latency_p99_s = tracker.recovery_latency_quantile(0.99);
  result.events_published = workload.events_published();
  result.events_tracked = tracker.events_tracked();
  result.expected_pairs = tracker.expected_pairs();
  result.delivered_pairs = tracker.delivered_pairs();
  result.recovered_pairs = tracker.recovered_pairs();
  result.delivery_series = tracker.delivery_series(to_string(cfg.algorithm));

  result.traffic = window_close - window_begin;
  result.gossip_msgs_per_dispatcher =
      static_cast<double>(result.traffic.gossip_sends()) /
      static_cast<double>(cfg.nodes);
  result.gossip_event_ratio = result.traffic.gossip_event_ratio();
  result.gossip_bytes_per_dispatcher =
      static_cast<double>(result.traffic.gossip_bytes()) /
      static_cast<double>(cfg.nodes);
  result.gossip_event_byte_ratio = result.traffic.gossip_event_byte_ratio();

  result.memory.node_count = cfg.nodes;
  result.memory.topology_bytes = topology.memory_bytes();
  result.memory.tracker_bytes = tracker.memory_bytes();
  network.for_each([&result](Dispatcher& d) {
    if (const GossipStats* s = d.recovery()->gossip_stats()) {
      result.gossip_totals += *s;
    }
    result.memory.routing_bytes += d.routing_memory_bytes();
    result.memory.seen_bytes += d.seen_memory_bytes();
    if (const EventCache* c = d.recovery()->event_cache()) {
      result.memory.cache_bytes += c->memory_bytes();
    }
    if (d.recovery()) d.recovery()->stop();
  });
  result.memory.cache_bytes += sim.event_registry().memory_bytes();

  result.mean_pairwise_distance = mean_distance;
  if (churn) {
    result.reconfig_breaks = churn->breaks();
    result.reconfig_repairs = churn->repairs();
    result.reconfig_deferred = churn->deferred_repairs();
  }
  if (faults) {
    result.fault.stats = faults->stats();
    result.fault.epochs = faults->epoch_windows();
    for (fault::FaultEpoch& epoch : result.fault.epochs) {
      const DeliveryTracker::PairWindow w = tracker.pairs_in_range(
          SimTime::zero() + Duration::seconds(epoch.start_s),
          SimTime::zero() + Duration::seconds(epoch.end_s));
      epoch.expected_pairs = w.expected;
      epoch.delivered_pairs = w.delivered;
      epoch.eventual_pairs = w.delivered_any;
    }
    const SimTime last_heal = faults->last_heal();
    if (last_heal > SimTime::zero()) {
      result.fault.last_heal_s = last_heal.to_seconds();
      result.fault.post_heal_convergence_s =
          last_recovery_at > last_heal
              ? (last_recovery_at - last_heal).to_seconds()
              : 0.0;
    }
  }
  result.drops_no_link = stats.snapshot().drops_no_link;
  if (oracles != nullptr) {
    oracles->notify_scenario_end();
    result.oracle_checks = oracles->checks();
    result.memory.oracle_bytes = oracles->memory_bytes();
  }
  result.hotpath = sim.profiler().snapshot();
  // Frames still in flight at end_time are live pool blocks until their
  // delivery closures die: drop them first, so the snapshot counts only
  // what the run's state (the tracker's published events) still holds.
  sim.scheduler().discard_pending();
  result.pool = sim.pool().stats();
  result.sim_events_executed = sim.scheduler().executed();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return result;
}

}  // namespace epicast
