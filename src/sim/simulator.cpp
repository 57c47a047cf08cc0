#include "epicast/sim/simulator.hpp"

#include "epicast/common/assert.hpp"

namespace epicast {

Simulator::Simulator(std::uint64_t seed) : seed_(seed), root_rng_(seed) {}

runtime::Transport& Simulator::transport() {
  EPICAST_ASSERT_MSG(transport_ != nullptr,
                     "no net::Transport was built on this simulator");
  return *transport_;
}

void Simulator::bind_transport(runtime::Transport* transport) {
  EPICAST_ASSERT_MSG(transport == nullptr || transport_ == nullptr,
                     "a transport is already bound to this simulator");
  transport_ = transport;
}

}  // namespace epicast
