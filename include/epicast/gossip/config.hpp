// epicast — configuration of the epidemic recovery layer.
//
// Names follow the paper's parameter table (Fig. 2): gossip interval T,
// buffer size β, fan-out probability P_forward, and the combined-pull mixing
// probability P_source. Extensions beyond the paper (cache eviction policy,
// adaptive interval) are opt-in and default to the paper's behaviour.
#pragma once

#include <cstddef>
#include <cstdint>

#include "epicast/sim/time.hpp"

namespace epicast {

/// The recovery algorithms evaluated in the paper (§IV).
enum class Algorithm {
  NoRecovery,      ///< best-effort baseline
  Push,            ///< proactive push, positive digests
  SubscriberPull,  ///< reactive pull steered towards subscribers
  PublisherPull,   ///< reactive pull steered towards the publisher
  CombinedPull,    ///< per-round mix of the two pulls (P_source)
  RandomPull,      ///< control: gossip routed entirely at random
};

[[nodiscard]] const char* to_string(Algorithm a);

/// Cache eviction policies; the paper uses FIFO (§IV-A), the others exist
/// for the ablation benchmark.
enum class CachePolicy { Fifo, Lru, Random };

[[nodiscard]] const char* to_string(CachePolicy p);

struct AdaptiveIntervalConfig {
  /// Off by default — the paper suggests adaptivity as future work (§IV-E,
  /// ref [14]); this implements that suggestion.
  bool enabled = false;
  Duration min_interval = Duration::millis(10);
  Duration max_interval = Duration::millis(200);
};

struct GossipConfig {
  /// T: time between two gossip rounds (Fig. 2 default 0.03 s).
  Duration interval = Duration::millis(30);

  /// β: events held in the retransmission buffer (Fig. 2 default 1500).
  std::size_t buffer_size = 1500;

  /// P_forward: probability that a gossip digest is forwarded to each
  /// eligible neighbour (value unspecified in the paper; see DESIGN.md).
  double forward_probability = 0.5;

  /// P_source: in combined pull, probability of running a publisher-based
  /// round instead of a subscriber-based one.
  double source_probability = 0.5;

  /// Nominal wire size of every gossip message. The paper's overhead charts
  /// assume gossip and event messages have equal size (§IV-E).
  std::size_t gossip_message_bytes = 200;

  /// Safety TTL for digest propagation along the tree.
  std::uint32_t max_hops = 32;

  /// Loss-buffer entries older than this are abandoned.
  Duration lost_entry_ttl = Duration::seconds(5.0);

  /// Cache eviction policy (paper: FIFO).
  CachePolicy cache_policy = CachePolicy::Fifo;

  /// Probabilistic cache admission — a lightweight take on the buffer
  /// optimizations the paper says it is investigating (§IV-C, ref [13]):
  /// a *subscriber* caches a received event only with this probability, so
  /// for a fixed β each cached event persists ~1/q longer while the event
  /// usually remains cached at some other subscriber or at the publisher
  /// (which always caches its own events, as publisher-based pull
  /// requires). 1.0 reproduces the paper's behaviour exactly.
  double cache_admission_probability = 1.0;

  /// Pull-side fault hardening (zero = off, the paper's behaviour — and
  /// the determinism seed guards pin that default). When positive, every
  /// out-of-band retransmission request is tracked: ids still unseen after
  /// this timeout count a timeout, are re-requested with the timeout
  /// doubling on each attempt (at most request_max_retries times), then
  /// abandoned. Digest exchanges that produce nothing within the timeout
  /// mark their targets as silent; rounds then steer around peers with two
  /// consecutive timeouts (crash-aware re-selection).
  Duration request_timeout = Duration::zero();
  std::uint32_t request_max_retries = 3;

  AdaptiveIntervalConfig adaptive;
};

}  // namespace epicast
