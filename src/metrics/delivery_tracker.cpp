#include "epicast/metrics/delivery_tracker.hpp"

#include <algorithm>
#include <map>

#include "epicast/common/assert.hpp"

namespace epicast {

DeliveryTracker::DeliveryTracker(Duration bucket_width,
                                 Duration recovery_horizon)
    : bucket_width_(bucket_width), horizon_(recovery_horizon) {
  EPICAST_ASSERT(bucket_width > Duration::zero());
  EPICAST_ASSERT(recovery_horizon > Duration::zero());
}

void DeliveryTracker::set_measure_window(SimTime start, SimTime end) {
  EPICAST_ASSERT(start < end);
  window_start_ = start;
  window_end_ = end;
  window_set_ = true;
}

void DeliveryTracker::on_publish(const EventId& id, SimTime when,
                                 std::uint32_t expected_receivers) {
  EPICAST_ASSERT_MSG(window_set_, "measure window not configured");
  if (when < window_start_ || when >= window_end_) return;
  if (expected_receivers == 0) return;  // nobody subscribed: rate undefined

  const auto [rec, inserted] = events_.try_emplace(id);
  EPICAST_ASSERT_MSG(inserted, "event published twice");
  rec->published_at = when;
  rec->expected = expected_receivers;
  ++events_tracked_;
  expected_pairs_ += expected_receivers;
}

void DeliveryTracker::on_delivery(NodeId node, const EventId& id, SimTime when,
                                  bool recovered) {
  if (node == id.source) return;  // self-delivery at the publisher
  EventRec* const found = events_.find(id);
  if (found == nullptr) return;  // outside the measure window
  EventRec& rec = *found;
  EPICAST_ASSERT_MSG(rec.delivered_any < rec.expected,
                     "more deliveries than expected receivers");
  ++rec.delivered_any;
  ++delivered_any_pairs_;
  if (when - rec.published_at <= horizon_) {
    ++rec.delivered;
    ++delivered_pairs_;
    if (recovered) {
      ++rec.recovered;
      ++recovered_pairs_;
      const double latency = (when - rec.published_at).to_seconds();
      recovery_latency_sum_ += latency;
      recovery_latencies_.push_back(latency);
      latencies_sorted_ = false;
    }
  }
}

double DeliveryTracker::delivery_rate() const {
  return expected_pairs_ == 0 ? 1.0
                              : static_cast<double>(delivered_pairs_) /
                                    static_cast<double>(expected_pairs_);
}

double DeliveryTracker::eventual_delivery_rate() const {
  return expected_pairs_ == 0 ? 1.0
                              : static_cast<double>(delivered_any_pairs_) /
                                    static_cast<double>(expected_pairs_);
}

TimeSeries DeliveryTracker::delivery_series(const char* name) const {
  struct Agg {
    std::uint64_t expected = 0;
    std::uint64_t delivered = 0;
  };
  std::map<std::int64_t, Agg> buckets;
  events_.for_each([&](const EventId&, const EventRec& rec) {
    const std::int64_t bucket =
        (rec.published_at - window_start_).count_nanos() /
        bucket_width_.count_nanos();
    Agg& agg = buckets[bucket];
    agg.expected += rec.expected;
    agg.delivered += rec.delivered;
  });
  TimeSeries series{name};
  for (const auto& [bucket, agg] : buckets) {
    if (agg.expected == 0) continue;
    const double t =
        (window_start_ + bucket_width_ * bucket).to_seconds();
    series.add(t, static_cast<double>(agg.delivered) /
                      static_cast<double>(agg.expected));
  }
  return series;
}

DeliveryTracker::PairWindow DeliveryTracker::pairs_in_range(SimTime start,
                                                            SimTime end) const {
  PairWindow w;
  events_.for_each([&](const EventId&, const EventRec& rec) {
    if (rec.published_at < start || rec.published_at >= end) return;
    w.expected += rec.expected;
    w.delivered += rec.delivered;
    w.delivered_any += rec.delivered_any;
  });
  return w;
}

double DeliveryTracker::receivers_per_event() const {
  return events_tracked_ == 0 ? 0.0
                              : static_cast<double>(expected_pairs_) /
                                    static_cast<double>(events_tracked_);
}

double DeliveryTracker::mean_recovery_latency() const {
  return recovered_pairs_ == 0
             ? 0.0
             : recovery_latency_sum_ / static_cast<double>(recovered_pairs_);
}

double DeliveryTracker::recovery_latency_quantile(double q) const {
  EPICAST_ASSERT(q >= 0.0 && q <= 1.0);
  if (recovery_latencies_.empty()) return 0.0;
  if (!latencies_sorted_) {
    std::sort(recovery_latencies_.begin(), recovery_latencies_.end());
    latencies_sorted_ = true;
  }
  const auto last = recovery_latencies_.size() - 1;
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(last));
  return recovery_latencies_[idx];
}

std::size_t DeliveryTracker::memory_bytes() const {
  return events_.memory_bytes() +
         recovery_latencies_.capacity() * sizeof(double);
}

}  // namespace epicast
