// epicast — topological reconfiguration driver.
//
// Models the paper's second unreliable scenario (§IV-A): every ρ seconds a
// random overlay link breaks; after a repair time of 0.1 s a replacement
// link is installed that reconnects the two components (respecting the
// degree cap), and the dispatching layer is notified so it can restore
// subscription routes — the converged outcome of the reconfiguration
// protocol of ref [7].
//
// With ρ larger than the repair time reconfigurations are non-overlapping
// (paper's ρ = 0.2 s); with ρ smaller, several links can be down at once
// (ρ = 0.03 s), the paper's "extreme test case".
//
// The reconfigurator runs on the runtime seam: pass the Simulator itself.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "epicast/common/rng.hpp"
#include "epicast/net/topology.hpp"
#include "epicast/runtime/runtime.hpp"

namespace epicast {

struct ReconfigConfig {
  /// ρ: time between consecutive link breakages.
  Duration interval = Duration::millis(200);
  /// How long the network stays split before the replacement link appears.
  Duration repair_time = Duration::millis(100);
  /// First breakage happens at start_at (then every `interval`, until
  /// Reconfigurator::stop()).
  SimTime start_at = SimTime::zero();
};

class Reconfigurator {
 public:
  /// What happened during one repair.
  struct Repair {
    Link removed;
    std::optional<Link> added;  ///< nullopt if the components had already
                                ///< been reconnected by a concurrent repair,
                                ///< or if no node had degree headroom
                                ///< (see exhausted_repairs())
  };

  /// Called when a link breaks.
  using BreakListener = std::function<void(const Link&)>;
  /// Called after the replacement link (if any) is installed.
  using RepairListener = std::function<void(const Repair&)>;

  /// The reconfigurator draws time, timers, and randomness from `rt`;
  /// `rt` and `topology` must outlive it.
  Reconfigurator(runtime::Runtime& rt, Topology& topology,
                 ReconfigConfig config);

  Reconfigurator(const Reconfigurator&) = delete;
  Reconfigurator& operator=(const Reconfigurator&) = delete;

  /// Begins the periodic break/repair cycle.
  void start();

  /// Stops scheduling further breakages (pending repairs still complete).
  void stop();

  void set_break_listener(BreakListener listener) {
    on_break_ = std::move(listener);
  }
  void set_repair_listener(RepairListener listener) {
    on_repair_ = std::move(listener);
  }

  /// Restricts which nodes may anchor a replacement link: the filter returns
  /// false for nodes that must not be wired up right now (FaultController
  /// marks crashed nodes). A repair whose only candidates are filtered out
  /// is *deferred* — re-checked one repair_time later — rather than silently
  /// installing a link to a dead endpoint. No filter = every node eligible.
  using NodeFilter = std::function<bool(NodeId)>;
  void set_node_filter(NodeFilter filter) { node_filter_ = std::move(filter); }

  /// Breaks one random link immediately and schedules its repair; usable
  /// directly in tests and examples without start().
  void force_reconfiguration();

  [[nodiscard]] std::uint64_t breaks() const { return breaks_; }
  [[nodiscard]] std::uint64_t repairs() const { return repairs_; }
  /// Repairs that found the components already reconnected.
  [[nodiscard]] std::uint64_t skipped_repairs() const {
    return skipped_repairs_;
  }
  /// Repairs abandoned because a separated component had no node with
  /// degree headroom left (possible with a degree cap of 1 or links added
  /// outside the reconfigurator); the partition persists until a later
  /// repair can reconnect it.
  [[nodiscard]] std::uint64_t exhausted_repairs() const {
    return exhausted_repairs_;
  }
  /// Repairs postponed because every attachable node on a side was rejected
  /// by the node filter (e.g., the only candidates were crashed).
  [[nodiscard]] std::uint64_t deferred_repairs() const {
    return deferred_repairs_;
  }
  /// Links currently down (broken, repair pending).
  [[nodiscard]] std::uint32_t pending_repairs() const { return pending_; }

 private:
  void break_one();
  void repair(Link removed);
  /// Picks a node with degree headroom (passing the node filter, if any)
  /// from the component of `anchor`.
  std::optional<NodeId> pick_attachable(NodeId anchor);
  /// True iff `anchor`'s component has degree headroom somewhere but every
  /// such node is currently rejected by the node filter.
  bool side_blocked(NodeId anchor) const;

  runtime::Runtime& rt_;
  Topology& topology_;
  ReconfigConfig config_;
  Rng rng_;
  runtime::PeriodicTimer timer_;
  BreakListener on_break_;
  RepairListener on_repair_;
  NodeFilter node_filter_;
  std::uint64_t breaks_ = 0;
  std::uint64_t repairs_ = 0;
  std::uint64_t skipped_repairs_ = 0;
  std::uint64_t exhausted_repairs_ = 0;
  std::uint64_t deferred_repairs_ = 0;
  std::uint32_t pending_ = 0;
};

}  // namespace epicast
