// epicast — execution engine for declarative fault plans.
//
// FaultController turns a FaultPlan into scheduled simulator events and a
// transport fault filter:
//
//  * **churn** — every period one random alive node crashes: its recovery
//    protocol is stop()ped and all its traffic (both channels) is dropped.
//    After the downtime it restarts: on_restart(policy) then start(). The
//    application layer is modelled as still producing events while down
//    (they reach nobody), so per-(source, pattern) sequence streams keep
//    moving and subscribers detect the outage as gaps once traffic resumes.
//  * **burst** — inside the window every directed overlay link runs a
//    Gilbert–Elliott chain layered on top of LinkModel's ε; control traffic
//    is exempt when the transport's control channel is lossless (the chain
//    still advances, mirroring LinkModel's draw-even-when-lossless rule).
//  * **slow** — the window scales every link's effective bandwidth.
//  * **partition** — removes k random links at `at`, restores them at
//    `heal` (skipping links that would reconnect an already-connected pair
//    or violate the degree cap), then fires the heal listener.
//
// Determinism: the controller forks one RNG stream per plan process in plan
// order (churns, bursts, partitions) at construction. Each burst process
// further forks one stream per *sender* node in node order, and per-link
// burst channels fork from their sender's stream in that sender's
// first-traffic order; the seed guards pin this split. A run with an empty
// plan constructs no controller at all and is bit-identical to a
// fault-free build.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "epicast/fault/gilbert_elliott.hpp"
#include "epicast/fault/plan.hpp"
#include "epicast/net/transport.hpp"
#include "epicast/pubsub/network.hpp"
#include "epicast/runtime/runtime.hpp"

namespace epicast::fault {

struct FaultControllerConfig {
  /// Plan times are relative to this instant (the scenario's publish_start).
  SimTime plan_origin;
  /// Where open-ended windows close for epoch accounting.
  SimTime end_time;
};

class FaultController {
 public:
  /// Validates the plan, forks the per-process RNG streams, and installs
  /// the crash/burst fault filter. References must outlive the controller.
  /// Scheduling and forks go through the runtime seam.
  FaultController(runtime::Runtime& rt, Transport& transport,
                  PubSubNetwork& network, FaultPlan plan,
                  FaultControllerConfig config);

  FaultController(const FaultController&) = delete;
  FaultController& operator=(const FaultController&) = delete;

  /// Schedules every plan process. Call once, after the network is wired.
  void start();

  [[nodiscard]] bool is_crashed(NodeId node) const {
    return crashed_[node.value()] != 0;
  }

  /// Called after each partition heal (the scenario layer rebuilds routes
  /// here when running in oracle-repair mode).
  void set_heal_listener(std::function<void()> listener) {
    heal_listener_ = std::move(listener);
  }

  /// Execution counters; burst-channel totals are folded in at call time.
  [[nodiscard]] FaultStats stats() const;

  /// One labelled window per plan process (delivery counters unfilled —
  /// the scenario layer computes those from the DeliveryTracker).
  [[nodiscard]] std::vector<FaultEpoch> epoch_windows() const;

  /// When the last fault condition ended so far (restart, partition heal,
  /// burst/slow window close); SimTime::zero() if none has yet.
  [[nodiscard]] SimTime last_heal() const { return last_heal_; }

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  struct ChurnState {
    ChurnSpec spec;
    Rng rng;
    runtime::PeriodicTimer timer;
  };
  struct BurstState {
    BurstSpec spec;
    /// One stream per sender node (forked in node order at construction);
    /// channels[from] forks lazily from senders[from] per destination, in
    /// the sender's first-traffic order.
    std::vector<Rng> senders;
    std::vector<std::unordered_map<std::uint32_t, GilbertElliottChannel>>
        channels;
    bool active = false;
  };
  struct PartitionState {
    PartitionSpec spec;
    Rng rng;
    std::vector<Link> removed;
  };

  bool allow(NodeId from, NodeId to, const Message& msg, bool overlay);
  void churn_tick(ChurnState& churn);
  void crash(NodeId victim, const ChurnSpec& spec);
  void restart(NodeId node, RestartPolicy policy);
  void apply_partition(PartitionState& partition);
  void heal_partition(PartitionState& partition);
  void note_heal() {
    if (last_heal_ < rt_.now()) last_heal_ = rt_.now();
  }
  /// Absolute → relative scheduling across the seam (TimerService only has
  /// after()); exact in integer nanoseconds, clamped for past targets.
  void at_time(SimTime at, runtime::TimerService::Callback cb);

  runtime::Runtime& rt_;
  Transport& transport_;
  PubSubNetwork& network_;
  FaultPlan plan_;
  FaultControllerConfig config_;
  std::function<void()> heal_listener_;

  std::vector<ChurnState> churns_;
  std::vector<BurstState> bursts_;
  std::vector<PartitionState> partitions_;
  std::vector<std::uint8_t> crashed_;
  std::vector<std::uint32_t> alive_scratch_;
  FaultStats stats_;
  SimTime last_heal_ = SimTime::zero();
};

}  // namespace epicast::fault
