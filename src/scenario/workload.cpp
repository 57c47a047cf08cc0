#include "epicast/scenario/workload.hpp"

#include <algorithm>
#include <cmath>

#include "epicast/common/assert.hpp"

namespace epicast {
namespace {

/// Normalized CDF of P(i) ∝ 1/(i+1)^s over i in [0, n).
std::vector<double> power_law_cdf(std::uint32_t n, double s) {
  std::vector<double> cdf(n);
  double acc = 0.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    acc += std::pow(static_cast<double>(i) + 1.0, -s);
    cdf[i] = acc;
  }
  for (double& v : cdf) v /= acc;
  return cdf;
}

std::uint32_t sample_cdf(const std::vector<double>& cdf, Rng& rng) {
  const double u = rng.next_double();
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return static_cast<std::uint32_t>(
      std::min<std::ptrdiff_t>(it - cdf.begin(),
                               static_cast<std::ptrdiff_t>(cdf.size()) - 1));
}

}  // namespace

Workload::Workload(Simulator& sim, PubSubNetwork& network,
                   const ScenarioConfig& config)
    : sim_(sim),
      network_(network),
      cfg_(config),
      universe_(config.pattern_universe),
      rng_(sim.fork_rng()),
      subscriptions_(network.size()) {
  node_rngs_.reserve(network.size());
  for (std::size_t i = 0; i < network.size(); ++i) {
    node_rngs_.push_back(rng_.fork());
  }
  if (cfg_.zipf_exponent > 0.0) {
    zipf_cdf_ = power_law_cdf(cfg_.pattern_universe, cfg_.zipf_exponent);
  }
  if (cfg_.subscription_skew > 0.0) {
    const std::uint32_t max_count =
        std::min(cfg_.pattern_universe,
                 std::max(2 * cfg_.patterns_per_subscriber, 8u));
    sub_count_cdf_ = power_law_cdf(max_count, cfg_.subscription_skew);
  }
}

std::vector<Pattern> Workload::draw_patterns(std::uint32_t k, Rng& rng) {
  if (zipf_cdf_.empty()) return universe_.sample_distinct(k, rng);
  // Zipf with rejection until k distinct ranks; k is small (≤ πmax), so the
  // collision rate stays tame even for steep exponents.
  std::vector<std::uint32_t> chosen;
  chosen.reserve(k);
  while (chosen.size() < k) {
    const std::uint32_t r = sample_cdf(zipf_cdf_, rng);
    if (std::find(chosen.begin(), chosen.end(), r) == chosen.end()) {
      chosen.push_back(r);
    }
  }
  std::sort(chosen.begin(), chosen.end());
  std::vector<Pattern> out;
  out.reserve(k);
  for (std::uint32_t v : chosen) out.emplace_back(v);
  return out;
}

std::uint32_t Workload::draw_subscription_count(Rng& rng) {
  if (sub_count_cdf_.empty()) return cfg_.patterns_per_subscriber;
  return sample_cdf(sub_count_cdf_, rng) + 1;  // counts are 1-based
}

void Workload::issue_subscriptions() {
  const bool flood =
      cfg_.bootstrap == ScenarioConfig::SubscriptionBootstrap::Flood;
  for (std::uint32_t i = 0; i < network_.size(); ++i) {
    const NodeId n{i};
    const std::uint32_t count = draw_subscription_count(node_rngs_[i]);
    subscriptions_[i] = draw_patterns(count, node_rngs_[i]);
    for (Pattern p : subscriptions_[i]) {
      if (flood) {
        network_.node(n).subscribe(p);
      } else {
        network_.node(n).subscribe_local(p);
      }
    }
  }
}

const std::vector<Pattern>& Workload::subscriptions_of(NodeId n) const {
  EPICAST_ASSERT(n.value() < subscriptions_.size());
  return subscriptions_[n.value()];
}

void Workload::start_publishing(SimTime at, SimTime until) {
  EPICAST_ASSERT(at < until);
  // publisher_count == 0: every dispatcher publishes (the paper's setup,
  // and exactly the historical loop). Otherwise evenly-spaced ids publish —
  // each still drawing from its own pre-forked stream, so the subscription
  // draws of non-publishers are unaffected.
  const auto total = static_cast<std::uint32_t>(network_.size());
  const std::uint32_t pubs =
      cfg_.publisher_count == 0 ? total : std::min(cfg_.publisher_count, total);
  const std::uint32_t stride = total / pubs;
  for (std::uint32_t j = 0; j < pubs; ++j) {
    const NodeId node{j * stride};
    const std::uint32_t i = node.value();
    // Stagger the first publish by one exponential inter-arrival so the
    // Poisson processes are in steady state from the window start.
    const Duration first = Duration::seconds(
        node_rngs_[i].exponential(1.0 / cfg_.publish_rate_hz));
    publish_at(node, at + first, until);
  }
}

void Workload::publish_at(NodeId node, SimTime at, SimTime until) {
  sim_.at(at, [this, node, until]() {
    if (sim_.now() >= until) return;
    Rng& rng = node_rngs_[node.value()];
    const auto content = draw_patterns(cfg_.patterns_per_event, rng);
    const EventPtr event =
        network_.node(node).publish(content, cfg_.event_payload_bytes);
    ++published_;
    if (on_publish_) on_publish_(event);
    const Duration gap =
        Duration::seconds(rng.exponential(1.0 / cfg_.publish_rate_hz));
    publish_at(node, sim_.now() + gap, until);
  });
}

}  // namespace epicast
