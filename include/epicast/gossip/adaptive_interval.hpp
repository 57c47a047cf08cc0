// epicast — adaptive gossip interval (extension).
//
// The paper notes (§IV-E) that push's proactive gossiping wastes bandwidth
// when losses are rare, and suggests adapting T dynamically "according to
// the current state of the system", citing PlanetP [14]. This controller
// implements that suggestion with a standard AIMD-flavoured rule:
//   * a round that observed recovery activity snaps T back to min_interval;
//   * an idle round multiplies T by kBackoffFactor, up to max_interval.
// Disabled (the paper's fixed-T behaviour) by default.
#pragma once

#include "epicast/gossip/config.hpp"
#include "epicast/sim/time.hpp"

namespace epicast {

class AdaptiveIntervalController {
 public:
  /// Multiplicative back-off applied while the protocol sees no loss.
  static constexpr double kBackoffFactor = 1.5;

  AdaptiveIntervalController(const AdaptiveIntervalConfig& config,
                             Duration base_interval);

  /// Reports the outcome of a round; returns the interval to the next one.
  Duration next(bool had_activity);

  [[nodiscard]] Duration current() const { return current_; }
  [[nodiscard]] bool enabled() const { return config_.enabled; }

 private:
  AdaptiveIntervalConfig config_;
  Duration base_;
  Duration current_;
};

}  // namespace epicast
