// Unit tests for the delivery-rate metric (§IV-B).
#include "epicast/metrics/delivery_tracker.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "epicast/common/rng.hpp"

namespace epicast {
namespace {

EventId id(std::uint32_t src, std::uint64_t seq) {
  return EventId{NodeId{src}, seq};
}

class DeliveryTrackerTest : public ::testing::Test {
 protected:
  DeliveryTrackerTest()
      : tracker_(Duration::millis(100), Duration::seconds(1.0)) {
    tracker_.set_measure_window(SimTime::seconds(1.0), SimTime::seconds(2.0));
  }
  DeliveryTracker tracker_;
};

TEST_F(DeliveryTrackerTest, CountsExpectedAndDeliveredPairs) {
  tracker_.on_publish(id(0, 1), SimTime::seconds(1.1), 3);
  tracker_.on_delivery(NodeId{1}, id(0, 1), SimTime::seconds(1.2), false);
  tracker_.on_delivery(NodeId{2}, id(0, 1), SimTime::seconds(1.3), false);
  EXPECT_EQ(tracker_.expected_pairs(), 3u);
  EXPECT_EQ(tracker_.delivered_pairs(), 2u);
  EXPECT_NEAR(tracker_.delivery_rate(), 2.0 / 3.0, 1e-12);
  EXPECT_EQ(tracker_.events_tracked(), 1u);
}

TEST_F(DeliveryTrackerTest, IgnoresEventsOutsideWindow) {
  tracker_.on_publish(id(0, 1), SimTime::seconds(0.5), 2);  // before
  tracker_.on_publish(id(0, 2), SimTime::seconds(2.0), 2);  // at end (excl.)
  tracker_.on_delivery(NodeId{1}, id(0, 1), SimTime::seconds(1.2), false);
  EXPECT_EQ(tracker_.expected_pairs(), 0u);
  EXPECT_EQ(tracker_.delivery_rate(), 1.0);  // vacuous
}

TEST_F(DeliveryTrackerTest, IgnoresEventsWithNoSubscribers) {
  tracker_.on_publish(id(0, 1), SimTime::seconds(1.1), 0);
  EXPECT_EQ(tracker_.events_tracked(), 0u);
}

TEST_F(DeliveryTrackerTest, PublisherSelfDeliveryIgnored) {
  tracker_.on_publish(id(7, 1), SimTime::seconds(1.1), 2);
  tracker_.on_delivery(NodeId{7}, id(7, 1), SimTime::seconds(1.1), false);
  EXPECT_EQ(tracker_.delivered_pairs(), 0u);
}

TEST_F(DeliveryTrackerTest, HorizonSeparatesLateDeliveries) {
  tracker_.on_publish(id(0, 1), SimTime::seconds(1.0), 2);
  tracker_.on_delivery(NodeId{1}, id(0, 1), SimTime::seconds(1.9), true);
  tracker_.on_delivery(NodeId{2}, id(0, 1), SimTime::seconds(2.5), true);
  EXPECT_EQ(tracker_.delivered_pairs(), 1u);     // within 1 s horizon
  EXPECT_NEAR(tracker_.delivery_rate(), 0.5, 1e-12);
  EXPECT_NEAR(tracker_.eventual_delivery_rate(), 1.0, 1e-12);
}

TEST_F(DeliveryTrackerTest, RecoveredPairsAndLatency) {
  tracker_.on_publish(id(0, 1), SimTime::seconds(1.0), 2);
  tracker_.on_delivery(NodeId{1}, id(0, 1), SimTime::seconds(1.1), false);
  tracker_.on_delivery(NodeId{2}, id(0, 1), SimTime::seconds(1.5), true);
  EXPECT_EQ(tracker_.recovered_pairs(), 1u);
  EXPECT_NEAR(tracker_.mean_recovery_latency(), 0.5, 1e-9);
}

TEST_F(DeliveryTrackerTest, ReceiversPerEventAverages) {
  tracker_.on_publish(id(0, 1), SimTime::seconds(1.1), 2);
  tracker_.on_publish(id(0, 2), SimTime::seconds(1.2), 6);
  EXPECT_NEAR(tracker_.receivers_per_event(), 4.0, 1e-12);
}

TEST_F(DeliveryTrackerTest, SeriesBucketsByPublishTime) {
  tracker_.on_publish(id(0, 1), SimTime::seconds(1.05), 2);   // bucket 0
  tracker_.on_publish(id(0, 2), SimTime::seconds(1.25), 2);   // bucket 2
  tracker_.on_delivery(NodeId{1}, id(0, 1), SimTime::seconds(1.1), false);
  tracker_.on_delivery(NodeId{2}, id(0, 1), SimTime::seconds(1.1), false);
  tracker_.on_delivery(NodeId{1}, id(0, 2), SimTime::seconds(1.3), false);
  const TimeSeries series = tracker_.delivery_series("x");
  ASSERT_EQ(series.size(), 2u);
  EXPECT_NEAR(series.points()[0].x, 1.0, 1e-9);
  EXPECT_NEAR(series.points()[0].y, 1.0, 1e-12);
  EXPECT_NEAR(series.points()[1].x, 1.2, 1e-9);
  EXPECT_NEAR(series.points()[1].y, 0.5, 1e-12);
}

TEST_F(DeliveryTrackerTest, RecoveryLatencyQuantiles) {
  tracker_.on_publish(id(0, 1), SimTime::seconds(1.0), 10);
  // Recovered deliveries at 0.1, 0.2, ..., 0.9 s after publication.
  for (int i = 1; i <= 9; ++i) {
    tracker_.on_delivery(NodeId{static_cast<std::uint32_t>(i)}, id(0, 1),
                         SimTime::seconds(1.0 + 0.1 * i), true);
  }
  EXPECT_NEAR(tracker_.recovery_latency_quantile(0.0), 0.1, 1e-9);
  EXPECT_NEAR(tracker_.recovery_latency_quantile(0.5), 0.5, 1e-9);
  EXPECT_NEAR(tracker_.recovery_latency_quantile(1.0), 0.9, 1e-9);
  EXPECT_NEAR(tracker_.mean_recovery_latency(), 0.5, 1e-9);
}

TEST_F(DeliveryTrackerTest, QuantileWithNoRecoveriesIsZero) {
  EXPECT_DOUBLE_EQ(tracker_.recovery_latency_quantile(0.5), 0.0);
}

TEST_F(DeliveryTrackerTest, UnknownEventDeliveryIsIgnored) {
  tracker_.on_delivery(NodeId{1}, id(9, 9), SimTime::seconds(1.5), false);
  EXPECT_EQ(tracker_.delivered_pairs(), 0u);
}

TEST(DeliveryTrackerModel, WholeTableResultsMatchANaiveRecomputation) {
  // 6000 publications (30 sources sharing sequence numbers 1..200), some
  // outside the window, over 500 buckets of 10 ms; deliveries at random
  // delays, some past the horizon, some recovered. Every whole-table
  // result must equal a recomputation from a plain list of what was fed.
  const Duration bucket = Duration::millis(10);
  const Duration horizon = Duration::millis(200);
  const SimTime start = SimTime::seconds(1.0);
  const SimTime end = SimTime::seconds(6.0);
  DeliveryTracker tracker(bucket, horizon);
  tracker.set_measure_window(start, end);
  EXPECT_EQ(tracker.memory_bytes(), 0u);

  struct Rec {
    SimTime at;
    std::uint64_t expected = 0;
    std::uint64_t delivered = 0;
    std::uint64_t delivered_any = 0;
  };
  std::vector<Rec> model;
  std::uint64_t recovered = 0;
  double latency_sum = 0.0;
  Rng rng(11);
  for (std::uint64_t seq = 1; seq <= 200; ++seq) {
    for (std::uint32_t src = 0; src < 30; ++src) {
      const SimTime at = SimTime::seconds(rng.uniform(0.5, 6.5));
      const auto receivers = static_cast<std::uint32_t>(rng.next_below(6));
      tracker.on_publish(id(src, seq), at, receivers);
      const bool tracked = at >= start && at < end && receivers > 0;
      Rec rec{at, tracked ? receivers : 0u};
      for (std::uint32_t k = 0; k < receivers; ++k) {
        if (!rng.chance(0.8)) continue;
        const SimTime when = at + Duration::millis(static_cast<std::int64_t>(
                                      rng.next_below(400)));
        const bool via_recovery = rng.chance(0.3);
        tracker.on_delivery(NodeId{100 + k}, id(src, seq), when,
                            via_recovery);
        if (!tracked) continue;
        ++rec.delivered_any;
        if (when - at <= horizon) {
          ++rec.delivered;
          if (via_recovery) {
            ++recovered;
            latency_sum += (when - at).to_seconds();
          }
        }
      }
      if (tracked) model.push_back(rec);
    }
  }

  std::uint64_t expected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t delivered_any = 0;
  for (const Rec& r : model) {
    expected += r.expected;
    delivered += r.delivered;
    delivered_any += r.delivered_any;
  }
  ASSERT_GT(model.size(), 3000u);
  EXPECT_EQ(tracker.events_tracked(), model.size());
  EXPECT_EQ(tracker.expected_pairs(), expected);
  EXPECT_EQ(tracker.delivered_pairs(), delivered);
  EXPECT_EQ(tracker.recovered_pairs(), recovered);
  EXPECT_EQ(tracker.delivery_rate(), static_cast<double>(delivered) /
                                         static_cast<double>(expected));
  EXPECT_EQ(tracker.eventual_delivery_rate(),
            static_cast<double>(delivered_any) /
                static_cast<double>(expected));
  EXPECT_EQ(tracker.receivers_per_event(),
            static_cast<double>(expected) /
                static_cast<double>(model.size()));
  EXPECT_EQ(tracker.mean_recovery_latency(),
            latency_sum / static_cast<double>(recovered));
  // The record table owns at least one slot per tracked event.
  EXPECT_GE(tracker.memory_bytes(),
            model.size() * (sizeof(EventId) + sizeof(SimTime)));

  std::map<std::int64_t, std::pair<std::uint64_t, std::uint64_t>> buckets;
  for (const Rec& r : model) {
    auto& b = buckets[(r.at - start).count_nanos() / bucket.count_nanos()];
    b.first += r.expected;
    b.second += r.delivered;
  }
  const TimeSeries series = tracker.delivery_series("rate");
  ASSERT_EQ(series.size(), buckets.size());
  ASSERT_GT(series.size(), 400u);
  std::size_t i = 0;
  for (const auto& [b, pairs] : buckets) {
    EXPECT_EQ(series.points()[i].x, (start + bucket * b).to_seconds());
    EXPECT_EQ(series.points()[i].y, static_cast<double>(pairs.second) /
                                        static_cast<double>(pairs.first));
    ++i;
  }

  for (int w = 0; w < 200; ++w) {
    SimTime a = SimTime::seconds(rng.uniform(0.5, 6.5));
    SimTime b = SimTime::seconds(rng.uniform(0.5, 6.5));
    if (b < a) std::swap(a, b);
    DeliveryTracker::PairWindow want;
    for (const Rec& r : model) {
      if (r.at < a || r.at >= b) continue;
      want.expected += r.expected;
      want.delivered += r.delivered;
      want.delivered_any += r.delivered_any;
    }
    const DeliveryTracker::PairWindow got = tracker.pairs_in_range(a, b);
    EXPECT_EQ(got.expected, want.expected);
    EXPECT_EQ(got.delivered, want.delivered);
    EXPECT_EQ(got.delivered_any, want.delivered_any);
  }
}

TEST(DeliveryTrackerDeath, OverDeliveryIsAContractViolation) {
  DeliveryTracker t(Duration::millis(100), Duration::seconds(1.0));
  t.set_measure_window(SimTime::zero(), SimTime::seconds(10.0));
  t.on_publish(EventId{NodeId{0}, 1}, SimTime::seconds(1.0), 1);
  t.on_delivery(NodeId{1}, EventId{NodeId{0}, 1}, SimTime::seconds(1.1),
                false);
  EXPECT_DEATH(t.on_delivery(NodeId{2}, EventId{NodeId{0}, 1},
                             SimTime::seconds(1.2), false),
               "more deliveries than expected");
}

}  // namespace
}  // namespace epicast
