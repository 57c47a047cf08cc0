// epicast — workload generation (§IV-A).
//
// Two responsibilities:
//   * subscriptions — each dispatcher subscribes to exactly πmax distinct
//     patterns drawn uniformly from the universe Π (stable for the whole
//     run, as in the paper);
//   * publications — every dispatcher publishes as a Poisson process with
//     the configured rate; each event's content is `patterns_per_event`
//     distinct uniform patterns.
//
// Scale extensions, all default-off (the defaults reproduce the paper's
// draws bit-for-bit):
//   * zipf_exponent > 0 — pattern popularity follows a Zipf law, for
//     subscriptions and event content alike (popular content is popular to
//     publish about);
//   * subscription_skew > 0 — per-node subscription counts follow a
//     truncated power law instead of the constant πmax;
//   * SubscriptionBootstrap::Oracle — subscriptions are installed locally
//     (no floods); the runner then calls PubSubNetwork::rebuild_routes().
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "epicast/common/rng.hpp"
#include "epicast/pubsub/network.hpp"
#include "epicast/pubsub/pattern.hpp"
#include "epicast/scenario/config.hpp"
#include "epicast/sim/simulator.hpp"

namespace epicast {

class Workload {
 public:
  Workload(Simulator& sim, PubSubNetwork& network,
           const ScenarioConfig& config);

  /// Draws each dispatcher's πmax patterns and issues the subscriptions
  /// (the subscription-forwarding floods start immediately).
  void issue_subscriptions();

  /// Called right after each publish with the event just created.
  using PublishListener = std::function<void(const EventPtr&)>;
  void set_publish_listener(PublishListener listener) {
    on_publish_ = std::move(listener);
  }

  /// Starts every dispatcher's Poisson publishing at `at`, until `until`.
  void start_publishing(SimTime at, SimTime until);

  [[nodiscard]] std::uint64_t events_published() const { return published_; }

  /// The patterns node `n` was subscribed to (valid after
  /// issue_subscriptions).
  [[nodiscard]] const std::vector<Pattern>& subscriptions_of(NodeId n) const;

 private:
  /// Schedules `node`'s next publish at `at`; the publish draws its content
  /// and the gap to the one after from the node's own stream.
  void publish_at(NodeId node, SimTime at, SimTime until);
  /// `k` distinct patterns via the configured popularity law: uniform
  /// (exactly the PatternUniverse draws) unless zipf_exponent > 0.
  [[nodiscard]] std::vector<Pattern> draw_patterns(std::uint32_t k, Rng& rng);
  /// This node's subscription count: πmax, or a skewed draw.
  [[nodiscard]] std::uint32_t draw_subscription_count(Rng& rng);

  Simulator& sim_;
  PubSubNetwork& network_;
  const ScenarioConfig& cfg_;
  PatternUniverse universe_;
  Rng rng_;
  /// One stream per node. The seed guards pin this split: one shared stream
  /// would reorder the subscription and publish draws.
  std::vector<Rng> node_rngs_;
  std::vector<std::vector<Pattern>> subscriptions_;
  PublishListener on_publish_;
  std::uint64_t published_ = 0;

  /// CDF of the Zipf pattern-popularity law (empty when uniform).
  std::vector<double> zipf_cdf_;
  /// CDF of the subscription-count law over counts [1..size()] (empty when
  /// every node takes exactly πmax).
  std::vector<double> sub_count_cdf_;
};

}  // namespace epicast
