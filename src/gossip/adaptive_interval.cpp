#include "epicast/gossip/adaptive_interval.hpp"

#include <algorithm>

#include "epicast/common/assert.hpp"

namespace epicast {

AdaptiveIntervalController::AdaptiveIntervalController(
    const AdaptiveIntervalConfig& config, Duration base_interval)
    : config_(config), base_(base_interval), current_(base_interval) {
  if (config_.enabled) {
    EPICAST_ASSERT(config_.min_interval > Duration::zero());
    EPICAST_ASSERT(config_.min_interval <= config_.max_interval);
    current_ = config_.min_interval;
  }
}

Duration AdaptiveIntervalController::next(bool had_activity) {
  if (!config_.enabled) return base_;
  if (had_activity) {
    current_ = config_.min_interval;
  } else {
    current_ = std::min(config_.max_interval, current_ * kBackoffFactor);
  }
  return current_;
}

}  // namespace epicast
