// Unit tests for the adaptive gossip-interval extension (§IV-E suggestion).
#include "epicast/gossip/adaptive_interval.hpp"

#include <gtest/gtest.h>

namespace epicast {
namespace {

TEST(AdaptiveInterval, DisabledAlwaysReturnsBase) {
  AdaptiveIntervalConfig cfg;  // enabled = false
  AdaptiveIntervalController c(cfg, Duration::millis(30));
  EXPECT_EQ(c.next(true), Duration::millis(30));
  EXPECT_EQ(c.next(false), Duration::millis(30));
  EXPECT_FALSE(c.enabled());
}

TEST(AdaptiveInterval, BacksOffWhileIdle) {
  AdaptiveIntervalConfig cfg;
  cfg.enabled = true;
  cfg.min_interval = Duration::millis(10);
  cfg.max_interval = Duration::millis(100);
  AdaptiveIntervalController c(cfg, Duration::millis(30));
  EXPECT_EQ(c.current(), Duration::millis(10));
  // ×1.5 per idle round.
  EXPECT_EQ(c.next(false), Duration::micros(15000));
  EXPECT_EQ(c.next(false), Duration::micros(22500));
  EXPECT_EQ(c.next(false), Duration::micros(33750));
  EXPECT_EQ(c.next(false), Duration::nanos(50625000));
  EXPECT_EQ(c.next(false), Duration::nanos(75937500));
  EXPECT_EQ(c.next(false), Duration::millis(100));  // capped
  EXPECT_EQ(c.next(false), Duration::millis(100));
}

TEST(AdaptiveInterval, ActivitySnapsBackToMin) {
  AdaptiveIntervalConfig cfg;
  cfg.enabled = true;
  cfg.min_interval = Duration::millis(10);
  cfg.max_interval = Duration::millis(100);
  AdaptiveIntervalController c(cfg, Duration::millis(30));
  (void)c.next(false);
  (void)c.next(false);
  EXPECT_GT(c.current(), Duration::millis(10));
  EXPECT_EQ(c.next(true), Duration::millis(10));
  EXPECT_EQ(c.current(), Duration::millis(10));
}

}  // namespace
}  // namespace epicast
