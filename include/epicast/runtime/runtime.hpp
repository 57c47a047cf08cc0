// epicast — the runtime seam: clock, timers, transport, randomness.
//
// Everything a protocol component needs from its environment, behind one
// interface with two implementations: the Simulator itself (the
// deterministic scheduler plus the simulated net::Transport built on it)
// and AsyncRuntime (a monotonic clock, timerfd wakeups and epoll UDP
// sockets). Protocol code written against `Runtime` runs on both unchanged
// — the property the conformance suite in tests/runtime/ pins.
//
// Both keep their timers in a Scheduler (sim/scheduler.hpp), so a
// TimerHandle is the scheduler's EventHandle and a timer callback is its
// SmallCallback: one cancellation mechanism and one FIFO tie-break
// everywhere.
//
// Determinism contract (simulation backends): a seam call makes exactly
// one scheduler call or RNG fork, in caller order, and nothing else — so
// protocol code written against Runtime& produces the same runs as code
// calling the Simulator directly (the seed guards in
// tests/test_determinism.cpp enforce this).
#pragma once

#include <functional>
#include <memory>
#include <utility>

#include "epicast/common/message_pool.hpp"
#include "epicast/common/rng.hpp"
#include "epicast/metrics/hotpath_profiler.hpp"
#include "epicast/runtime/transport.hpp"
#include "epicast/sim/callback.hpp"
#include "epicast/sim/scheduler.hpp"
#include "epicast/sim/time.hpp"

namespace epicast::runtime {

/// Time source. Simulated time or monotonic-since-start; either way a
/// SimTime that only moves forward.
class Clock {
 public:
  virtual ~Clock() = default;
  [[nodiscard]] virtual SimTime now() const = 0;
};

/// Cancellation token for a one-shot timer: the EventHandle of the
/// backend's scheduler. Copyable; all copies refer to the same scheduled
/// callback, a default-constructed handle is inert, and a handle must not
/// outlive the runtime that created it.
using TimerHandle = EventHandle;

/// One-shot timer scheduling.
class TimerService {
 public:
  using Callback = SmallCallback;

  virtual ~TimerService() = default;

  /// Schedules `cb` to run after `delay`. Timers with equal deadlines fire
  /// in scheduling order (FIFO) — protocol determinism relies on it.
  virtual TimerHandle after(Duration delay, Callback cb) = 0;
};

/// A repeating timer over any TimerService — the only periodic timer in the
/// library. Owns its scheduling; cancelled on destruction, so a component
/// holding one by value cannot leave callbacks dangling. Each tick re-arms
/// with one after(interval) call, so it adds nothing to the scheduler's
/// event order beyond its own ticks. Like a TimerHandle, it must not
/// outlive the runtime it ticks on.
class PeriodicTimer {
 public:
  PeriodicTimer() = default;
  ~PeriodicTimer() { stop(); }

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;
  PeriodicTimer(PeriodicTimer&&) = default;
  PeriodicTimer& operator=(PeriodicTimer&& other) noexcept {
    if (this != &other) {
      stop();
      state_ = std::move(other.state_);
    }
    return *this;
  }

  /// True while ticking.
  [[nodiscard]] bool running() const { return state_ != nullptr; }

  /// Stops future ticks. Idempotent.
  void stop();

  /// Changes the interval; the next tick happens `interval` from now.
  void set_interval(Duration interval);

 private:
  friend class Runtime;
  struct State {
    TimerService* timers = nullptr;
    Duration interval;
    std::function<void()> on_tick;
    TimerHandle handle;
  };
  /// Schedules the next tick `delay` from now.
  static void arm(const std::shared_ptr<State>& state, Duration delay);

  std::shared_ptr<State> state_;
};

/// The full seam: what a protocol component may touch of its environment.
/// References returned by the accessors stay valid for the runtime's
/// lifetime.
class Runtime {
 public:
  virtual ~Runtime() = default;

  [[nodiscard]] virtual Clock& clock() = 0;
  [[nodiscard]] virtual const Clock& clock() const = 0;
  [[nodiscard]] virtual TimerService& timers() = 0;
  [[nodiscard]] virtual Transport& transport() = 0;

  /// Derives an independent RNG stream for a component. Call order matters
  /// (and, in simulation, is the determinism-critical fork order);
  /// components fork their streams during construction.
  virtual Rng fork_rng() = 0;

  /// Message/event allocation pool shared by every component on this
  /// runtime.
  [[nodiscard]] virtual MessagePool& pool() = 0;

  /// Hot-path phase counters.
  [[nodiscard]] virtual HotpathProfiler& profiler() = 0;

  // -- conveniences ---------------------------------------------------------

  [[nodiscard]] SimTime now() const { return clock().now(); }

  TimerHandle after(Duration delay, TimerService::Callback cb) {
    return timers().after(delay, std::move(cb));
  }

  /// Starts a periodic timer with the first tick after `first_delay` and
  /// subsequent ticks every `interval`.
  PeriodicTimer every(Duration first_delay, Duration interval,
                      std::function<void()> on_tick);
};

}  // namespace epicast::runtime
