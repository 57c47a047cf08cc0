// epicast — the paper's delivery-rate metric (§IV-B).
//
// For every published event the simulation computes, with global knowledge,
// the set of dispatchers that would receive it over a fully reliable
// network (the dispatchers locally subscribed to one of its patterns,
// excluding the publisher itself). Each such (event, subscriber) pair is
// *expected*; it becomes *delivered* when the subscriber first receives the
// event — directly or through recovery — within a fixed recovery horizon of
// its publication.
//
// delivery rate = delivered pairs / expected pairs. The time series buckets
// pairs by *publish* time, which makes loss bursts (reconfigurations) show
// up as the dips of the paper's Fig. 3(b).
//
// Every publish and every delivery of a run probes the per-event records,
// so they live in an open-addressed FlatHashMap keyed by EventId. Its slot
// order is arbitrary; every whole-table read (delivery_series,
// pairs_in_range) only sums integers, so the results do not depend on it.
#pragma once

#include <cstdint>
#include <vector>

#include "epicast/common/flat_hash_map.hpp"
#include "epicast/common/ids.hpp"
#include "epicast/metrics/time_series.hpp"
#include "epicast/sim/time.hpp"

namespace epicast {

class DeliveryTracker {
 public:
  DeliveryTracker(Duration bucket_width, Duration recovery_horizon);

  /// Only events published inside [start, end) are tracked.
  void set_measure_window(SimTime start, SimTime end);

  /// Registers a publication. `expected_receivers` excludes the publisher;
  /// events nobody subscribes to are ignored.
  void on_publish(const EventId& id, SimTime when,
                  std::uint32_t expected_receivers);

  /// Registers the first delivery of `id` at `node` (the dispatcher layer
  /// already suppresses duplicates). Self-deliveries at the publisher and
  /// deliveries of untracked events are ignored.
  void on_delivery(NodeId node, const EventId& id, SimTime when,
                   bool recovered);

  // -- results ---------------------------------------------------------------

  /// Delivered-within-horizon / expected, over the whole window.
  [[nodiscard]] double delivery_rate() const;

  /// Ignoring the horizon (counts late recoveries too).
  [[nodiscard]] double eventual_delivery_rate() const;

  /// Delivery rate per publish-time bucket; x = bucket start in seconds.
  [[nodiscard]] TimeSeries delivery_series(const char* name) const;

  /// Mean expected receivers per tracked event (the paper's Fig. 7 metric).
  [[nodiscard]] double receivers_per_event() const;

  /// Mean publish→delivery latency of recovered pairs, seconds.
  [[nodiscard]] double mean_recovery_latency() const;

  /// Quantile (q in [0,1]) of the recovery latency distribution, seconds;
  /// 0 when nothing was recovered. q=0.5 is the median.
  [[nodiscard]] double recovery_latency_quantile(double q) const;

  /// Pair counters restricted to events published in [start, end) — the
  /// fault layer's per-epoch delivery ratios. O(tracked events) per call.
  struct PairWindow {
    std::uint64_t expected = 0;
    std::uint64_t delivered = 0;      ///< within horizon
    std::uint64_t delivered_any = 0;  ///< ignoring the horizon
  };
  [[nodiscard]] PairWindow pairs_in_range(SimTime start, SimTime end) const;

  [[nodiscard]] std::uint64_t events_tracked() const {
    return events_tracked_;
  }
  [[nodiscard]] std::uint64_t expected_pairs() const {
    return expected_pairs_;
  }
  [[nodiscard]] std::uint64_t delivered_pairs() const {
    return delivered_pairs_;
  }
  /// Pairs delivered through the recovery machinery (within horizon).
  [[nodiscard]] std::uint64_t recovered_pairs() const {
    return recovered_pairs_;
  }

  /// Bytes owned by the tracker's containers (the record table's slot
  /// array and the latency samples) — per-component memory accounting for
  /// the scale figures.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  struct EventRec {
    SimTime published_at;
    std::uint32_t expected = 0;
    std::uint32_t delivered = 0;   // within horizon
    std::uint32_t delivered_any = 0;
    std::uint32_t recovered = 0;   // subset of `delivered`
  };

  Duration bucket_width_;
  Duration horizon_;
  SimTime window_start_;
  SimTime window_end_;
  bool window_set_ = false;

  FlatHashMap<EventId, EventRec, EventIdKey> events_;
  std::uint64_t events_tracked_ = 0;
  std::uint64_t expected_pairs_ = 0;
  std::uint64_t delivered_pairs_ = 0;
  std::uint64_t delivered_any_pairs_ = 0;
  std::uint64_t recovered_pairs_ = 0;
  double recovery_latency_sum_ = 0.0;
  /// One entry per recovered pair; sorted lazily by the quantile query.
  mutable std::vector<double> recovery_latencies_;
  mutable bool latencies_sorted_ = true;
};

}  // namespace epicast
