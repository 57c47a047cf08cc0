#include "epicast/net/link_model.hpp"

#include <algorithm>

#include "epicast/common/assert.hpp"

namespace epicast {

LinkModel::LinkModel(LinkParams params, Rng base, std::uint32_t nodes)
    : params_(params), next_free_(nodes) {
  EPICAST_ASSERT(params_.bandwidth_bps > 0);
  EPICAST_ASSERT(params_.loss_rate >= 0.0 && params_.loss_rate <= 1.0);
  rngs_.reserve(nodes);
  for (std::uint32_t i = 0; i < nodes; ++i) rngs_.push_back(base.fork());
}

Duration LinkModel::serialization_time(std::size_t bytes) const {
  const double bits = static_cast<double>(bytes) * 8.0;
  return Duration::seconds(bits / (params_.bandwidth_bps * bandwidth_scale_));
}

void LinkModel::set_bandwidth_scale(double scale) {
  EPICAST_ASSERT_MSG(scale > 0.0 && scale <= 1.0,
                     "bandwidth scale must be in (0, 1]");
  bandwidth_scale_ = scale;
}

LinkModel::Outcome LinkModel::transmit(NodeId from, NodeId to,
                                       std::size_t bytes, SimTime now,
                                       bool lossless) {
  EPICAST_ASSERT(from.value() < next_free_.size());
  SimTime& free_at = next_free_[from.value()][to];
  const SimTime start = std::max(free_at, now);
  const SimTime done = start + serialization_time(bytes);
  free_at = done;

  Outcome out;
  out.delay = (done + params_.propagation) - now;
  // The loss trial is drawn even for lossless sends so that toggling
  // reliability does not shift the RNG stream of subsequent messages.
  const bool corrupted = rngs_[from.value()].chance(params_.loss_rate);
  out.lost = corrupted && !lossless;
  return out;
}

void LinkModel::reset() {
  for (auto& per_sender : next_free_) per_sender.clear();
}

}  // namespace epicast
