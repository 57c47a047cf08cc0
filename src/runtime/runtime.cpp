#include "epicast/runtime/runtime.hpp"

#include <utility>

#include "epicast/common/assert.hpp"

namespace epicast::runtime {

void PeriodicTimer::stop() {
  if (state_) {
    state_->handle.cancel();
    state_.reset();
  }
}

void PeriodicTimer::set_interval(Duration interval) {
  EPICAST_ASSERT(interval > Duration::zero());
  EPICAST_ASSERT_MSG(state_ != nullptr, "timer is not running");
  state_->interval = interval;
  // Re-arm immediately: the next tick happens `interval` from now, whether
  // the previous one was already scheduled or we are inside a tick callback.
  state_->handle.cancel();
  arm(state_, interval);
}

void PeriodicTimer::arm(const std::shared_ptr<State>& state, Duration delay) {
  // Weak capture: if the owning PeriodicTimer is destroyed, the chain stops
  // instead of keeping the state alive through self-reference.
  std::weak_ptr<State> weak = state;
  state->handle = state->timers->after(delay, [weak]() {
    auto live = weak.lock();
    if (!live) return;
    live->on_tick();
    // on_tick may have re-armed via set_interval; don't double-arm.
    if (!live->handle.pending()) arm(live, live->interval);
  });
}

PeriodicTimer Runtime::every(Duration first_delay, Duration interval,
                             std::function<void()> on_tick) {
  EPICAST_ASSERT(interval > Duration::zero());
  EPICAST_ASSERT(!first_delay.is_negative());
  EPICAST_ASSERT(on_tick != nullptr);

  auto state = std::make_shared<PeriodicTimer::State>();
  state->timers = &timers();
  state->interval = interval;
  state->on_tick = std::move(on_tick);
  PeriodicTimer::arm(state, first_delay);

  PeriodicTimer timer;
  timer.state_ = std::move(state);
  return timer;
}

}  // namespace epicast::runtime
