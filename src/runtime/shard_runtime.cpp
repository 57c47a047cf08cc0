#include "epicast/runtime/shard_runtime.hpp"

#include <utility>

#include "epicast/sim/lane_context.hpp"

namespace epicast::runtime {

ShardRuntime::ShardRuntime(ShardEngine& engine, std::uint32_t lane,
                           Simulator& sim, bool own_pool)
    : sim_(sim), engine_(engine), lane_(lane) {
  if (own_pool) pool_ = std::make_unique<MessagePool>();
}

// During parallel windows the engine's clock is the master's replay clock;
// code running on a worker lane reads its own lane context's event time.
SimTime ShardRuntime::now() const {
  return LaneContext::now_or(engine_.now());
}

// Cancellation works across lanes because the merged execution re-scans
// every lane head.
TimerHandle ShardRuntime::after(Duration delay, Callback cb) {
  return engine_.schedule_lane(lane_, now() + delay, std::move(cb));
}

}  // namespace epicast::runtime
