#include "epicast/gossip/random_pull.hpp"

#include <utility>

namespace epicast {

bool RandomPullProtocol::on_round() {
  lost_.expire(d_.now());
  if (lost_.empty()) return false;

  // Same per-round scope as the steered pulls — losses of one randomly
  // chosen pattern — so the only difference under test is the routing.
  const Pattern p = lost_.pattern_with_losses_at(
      d_.rng().next_below(lost_.patterns_with_losses_count()));
  lost_.entries_for_pattern_into(p, wanted_scratch_);
  fanout_into(d_.neighbors(), false, fanout_scratch_);
  if (!fanout_scratch_.empty()) {
    const MessagePtr digest =
        msgs_.random_pull_digest(d_.id(), wanted_scratch_, /*hops=*/0);
    for (NodeId to : fanout_scratch_) {
      send_digest(to, digest, /*originated=*/true);
    }
  }
  return true;
}

}  // namespace epicast
