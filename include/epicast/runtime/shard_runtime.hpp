// epicast — the sharded-engine backend of the runtime seam.
//
// One ShardRuntime per lane (K shard lanes for the dispatchers, one master
// lane for scenario-level components). Timers land on the lane's own heap,
// the clock reads the engine's global clock (kept in lockstep with the
// master Simulator), RNG forks delegate to the master Simulator so the
// fork order — the determinism-critical order — is identical to the serial
// run, and each shard lane owns its MessagePool so allocation stays
// shard-local. transport() is the master Simulator's: the simulated
// net::Transport, whose arrival router feeds the engine's mailboxes.
#pragma once

#include <memory>

#include "epicast/runtime/runtime.hpp"
#include "epicast/sim/shard_engine.hpp"
#include "epicast/sim/simulator.hpp"

namespace epicast::runtime {

class ShardRuntime final : public Runtime,
                           public Clock,
                           public TimerService {
 public:
  /// Keeps references to `engine` and `sim`; both must outlive this
  /// runtime. `own_pool` gives the lane its own MessagePool (shard lanes);
  /// the master lane shares the Simulator's pool.
  ShardRuntime(ShardEngine& engine, std::uint32_t lane, Simulator& sim,
               bool own_pool);

  ShardRuntime(const ShardRuntime&) = delete;
  ShardRuntime& operator=(const ShardRuntime&) = delete;

  [[nodiscard]] Clock& clock() override { return *this; }
  [[nodiscard]] const Clock& clock() const override { return *this; }
  [[nodiscard]] TimerService& timers() override { return *this; }
  [[nodiscard]] Transport& transport() override { return sim_.transport(); }
  Rng fork_rng() override { return sim_.fork_rng(); }
  [[nodiscard]] MessagePool& pool() override {
    return pool_ != nullptr ? *pool_ : sim_.pool();
  }
  /// Shard lanes charge their lane's private profiler (race-free under the
  /// worker pool; the runner merges lane snapshots into the run totals);
  /// the master lane charges the Simulator's.
  [[nodiscard]] HotpathProfiler& profiler() override {
    return lane_ < engine_.shard_count() ? engine_.lane_profiler(lane_)
                                         : sim_.profiler();
  }

  /// The engine's clock; during parallel windows, the executing lane
  /// event's time.
  [[nodiscard]] SimTime now() const override;

  /// Schedules on this runtime's lane heap.
  TimerHandle after(Duration delay, Callback cb) override;

  [[nodiscard]] std::uint32_t lane() const { return lane_; }

 private:
  Simulator& sim_;
  ShardEngine& engine_;
  std::uint32_t lane_;
  std::unique_ptr<MessagePool> pool_;  // shard-local pool, if owned
};

}  // namespace epicast::runtime
