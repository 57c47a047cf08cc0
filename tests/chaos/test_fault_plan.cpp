// Fault-plan grammar: parse → structs, describe → grammar, round trips,
// and precise rejection of malformed specs (a silently misread chaos plan
// would invalidate the experiment that asked for it).
#include <gtest/gtest.h>

#include "epicast/fault/plan.hpp"

namespace epicast::fault {
namespace {

TEST(FaultPlan, ParsesEveryProcessKind) {
  std::string error;
  const auto plan = parse_plan(
      "churn(period=0.4,down=0.2,policy=cold,start=1,stop=3);"
      "burst(p=0.05,r=0.5,loss_good=0.01,loss_bad=0.9,start=2,stop=6);"
      "slow(factor=0.25,start=3,stop=5);"
      "partition(links=3,at=4,heal=5.5)",
      &error);
  ASSERT_TRUE(plan.has_value()) << error;
  ASSERT_EQ(plan->churns.size(), 1u);
  ASSERT_EQ(plan->bursts.size(), 1u);
  ASSERT_EQ(plan->slows.size(), 1u);
  ASSERT_EQ(plan->partitions.size(), 1u);
  EXPECT_EQ(plan->process_count(), 4u);

  const ChurnSpec& c = plan->churns[0];
  EXPECT_DOUBLE_EQ(c.period.to_seconds(), 0.4);
  EXPECT_DOUBLE_EQ(c.downtime.to_seconds(), 0.2);
  EXPECT_EQ(c.policy, RestartPolicy::Cold);
  EXPECT_DOUBLE_EQ(c.start.to_seconds(), 1.0);
  ASSERT_TRUE(c.stop.has_value());
  EXPECT_DOUBLE_EQ(c.stop->to_seconds(), 3.0);

  const BurstSpec& b = plan->bursts[0];
  EXPECT_DOUBLE_EQ(b.channel.p_enter, 0.05);
  EXPECT_DOUBLE_EQ(b.channel.p_exit, 0.5);
  EXPECT_DOUBLE_EQ(b.channel.loss_good, 0.01);
  EXPECT_DOUBLE_EQ(b.channel.loss_bad, 0.9);

  EXPECT_DOUBLE_EQ(plan->slows[0].factor, 0.25);
  EXPECT_EQ(plan->partitions[0].links, 3u);
  EXPECT_DOUBLE_EQ(plan->partitions[0].heal.to_seconds(), 5.5);

  plan->validate();  // must not abort
}

TEST(FaultPlan, OmittedKeysTakeDefaultsAndOrderIsFree) {
  const auto plan = parse_plan("churn(down=0.1, period=2)");
  ASSERT_TRUE(plan.has_value());
  const ChurnSpec& c = plan->churns[0];
  EXPECT_DOUBLE_EQ(c.period.to_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(c.downtime.to_seconds(), 0.1);
  EXPECT_EQ(c.policy, RestartPolicy::Warm);  // default
  EXPECT_TRUE(c.start.is_zero());
  EXPECT_FALSE(c.stop.has_value());
}

TEST(FaultPlan, EmptySpecIsTheEmptyPlan) {
  const auto plan = parse_plan("");
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->empty());
  EXPECT_EQ(plan->describe(), "");
  // Stray separators are tolerated, still empty.
  const auto sloppy = parse_plan(" ; ;");
  ASSERT_TRUE(sloppy.has_value());
  EXPECT_TRUE(sloppy->empty());
}

TEST(FaultPlan, DescribeRoundTrips) {
  const std::string spec =
      "churn(period=0.4,down=0.2,policy=cold,stop=3);"
      "burst(p=0.05,r=0.5,start=2,stop=6);"
      "slow(factor=0.25,start=3,stop=5);"
      "partition(links=3,at=4,heal=5.5)";
  const auto plan = parse_plan(spec);
  ASSERT_TRUE(plan.has_value());
  const std::string described = plan->describe();
  const auto reparsed = parse_plan(described);
  ASSERT_TRUE(reparsed.has_value()) << described;
  // Grammar → structs → grammar is a fixed point.
  EXPECT_EQ(reparsed->describe(), described);
  EXPECT_EQ(reparsed->process_count(), plan->process_count());
}

TEST(FaultPlan, MalformedSpecsAreRejectedWithAMessage) {
  const char* bad[] = {
      "nuke(at=1)",                       // unknown process
      "churn(perod=1)",                   // misspelled key
      "churn(period)",                    // missing value
      "churn(period=abc)",                // non-numeric
      "churn(period=-1)",                 // negative time
      "churn",                            // no parentheses
      "churn(period=1",                   // unterminated
      "churn(policy=lukewarm)",           // bad enum
      "burst(p=1.5)",                     // probability out of range
      "burst(p=0.5,r=0)",                 // absorbing Bad state
      "slow(factor=0)",                   // factor out of (0, 1]
      "slow(factor=1.5)",
      "partition(links=0)",               // no links
      "partition(at=5,heal=4)",           // heal before at
  };
  for (const char* spec : bad) {
    std::string error;
    EXPECT_FALSE(parse_plan(spec, &error).has_value()) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

}  // namespace
}  // namespace epicast::fault
