// epicast — simulation context.
//
// `Simulator` bundles the scheduler with the root RNG, the message pool and
// the hot-path profiler, and is itself the simulation backend of the
// runtime seam: its scheduler serves as clock and timers, and transport()
// is the simulated net::Transport built on it. All model components draw
// time from it and randomness from streams forked off it — never from
// wall-clock or global state — which is what makes every scenario a
// deterministic function of (config, seed).
#pragma once

#include <cstdint>

#include "epicast/common/message_pool.hpp"
#include "epicast/common/rng.hpp"
#include "epicast/gossip/event_registry.hpp"
#include "epicast/metrics/hotpath_profiler.hpp"
#include "epicast/runtime/runtime.hpp"
#include "epicast/sim/scheduler.hpp"
#include "epicast/sim/time.hpp"

namespace epicast {

/// The simulation context: scheduler + deterministic randomness.
class Simulator final : public runtime::Runtime,
                        public runtime::Clock,
                        public runtime::TimerService {
 public:
  /// Creates a simulator whose entire stochastic behaviour derives from
  /// `seed`.
  explicit Simulator(std::uint64_t seed);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Scheduler& scheduler() { return scheduler_; }

  // -- Runtime ----------------------------------------------------------------

  [[nodiscard]] runtime::Clock& clock() override { return *this; }
  [[nodiscard]] const runtime::Clock& clock() const override { return *this; }
  [[nodiscard]] runtime::TimerService& timers() override { return *this; }

  /// The net::Transport built on this simulator (it binds itself on
  /// construction). Calling this on a simulator without one is a
  /// programming error.
  [[nodiscard]] runtime::Transport& transport() override;

  /// Called by net::Transport's constructor and destructor; at most one
  /// transport is bound at a time.
  void bind_transport(runtime::Transport* transport);

  /// Derives an independent RNG stream for a component. Call order matters
  /// (and is deterministic); components should fork their streams during
  /// construction.
  Rng fork_rng() override { return root_rng_.fork(); }

  /// Per-scenario message/event allocation pool. Scenarios are
  /// single-threaded, so the pool is unsynchronized by design; everything
  /// allocated through it may outlive this Simulator (the pool state is
  /// reference-counted by outstanding allocations).
  [[nodiscard]] MessagePool& pool() override { return pool_; }

  /// The scenario's one index of cached events, shared by every
  /// dispatcher's β buffer; the caches must be gone before the simulator.
  [[nodiscard]] EventRegistry& event_registry() override { return registry_; }

  /// Hot-path phase counters (ops always, ns when a scenario enables
  /// timing); aggregated into ScenarioResult.
  [[nodiscard]] HotpathProfiler& profiler() override { return profiler_; }

  // -- clock and timers -------------------------------------------------------

  [[nodiscard]] SimTime now() const override { return scheduler_.now(); }

  /// Schedules a one-shot callback after `delay`.
  EventHandle after(Duration delay, Callback cb) override {
    return scheduler_.schedule_after(delay, std::move(cb));
  }

  /// Schedules a one-shot callback at absolute time `at`.
  EventHandle at(SimTime at, Callback cb) {
    return scheduler_.schedule_at(at, std::move(cb));
  }

  /// Runs until no events remain.
  void run() { scheduler_.run(); }

  /// Runs until the given simulation time.
  void run_until(SimTime deadline) { scheduler_.run_until(deadline); }

  /// Seed this simulator was constructed with (for reports).
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_;
  Scheduler scheduler_;
  Rng root_rng_;
  MessagePool pool_;
  EventRegistry registry_;
  HotpathProfiler profiler_;
  runtime::Transport* transport_ = nullptr;
};

}  // namespace epicast
