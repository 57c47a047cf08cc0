// Unit tests for the subscription table: local marks, routes, matching,
// target computation, and pruning.
#include "epicast/pubsub/subscription_table.hpp"

#include <gtest/gtest.h>

namespace epicast {
namespace {

EventPtr event_with(std::vector<Pattern> patterns) {
  std::vector<PatternSeq> ps;
  std::uint64_t seq = 1;
  for (Pattern p : patterns) ps.push_back({p, SeqNo{seq++}});
  return std::make_shared<EventData>(EventId{NodeId{0}, 0}, std::move(ps), 10,
                                     SimTime::zero());
}

TEST(SubscriptionTable, LocalAddRemove) {
  SubscriptionTable t;
  EXPECT_TRUE(t.add_local(Pattern{1}));
  EXPECT_FALSE(t.add_local(Pattern{1}));  // idempotent
  EXPECT_TRUE(t.has_local(Pattern{1}));
  EXPECT_TRUE(t.knows(Pattern{1}));
  EXPECT_TRUE(t.remove_local(Pattern{1}));
  EXPECT_FALSE(t.remove_local(Pattern{1}));
  EXPECT_FALSE(t.knows(Pattern{1}));  // pruned
}

TEST(SubscriptionTable, RouteAddRemove) {
  SubscriptionTable t;
  EXPECT_TRUE(t.add_route(Pattern{1}, NodeId{5}));
  EXPECT_FALSE(t.add_route(Pattern{1}, NodeId{5}));
  EXPECT_TRUE(t.has_route(Pattern{1}, NodeId{5}));
  EXPECT_FALSE(t.has_route(Pattern{1}, NodeId{6}));
  EXPECT_TRUE(t.remove_route(Pattern{1}, NodeId{5}));
  EXPECT_FALSE(t.remove_route(Pattern{1}, NodeId{5}));
  EXPECT_FALSE(t.knows(Pattern{1}));
}

TEST(SubscriptionTable, MatchesLocalOnAnyEventPattern) {
  SubscriptionTable t;
  t.add_local(Pattern{3});
  EXPECT_TRUE(t.matches_local(*event_with({Pattern{1}, Pattern{3}})));
  EXPECT_FALSE(t.matches_local(*event_with({Pattern{1}, Pattern{2}})));
}

TEST(SubscriptionTable, RouteTargetsUnionAcrossPatternsDeduped) {
  SubscriptionTable t;
  t.add_route(Pattern{1}, NodeId{7});
  t.add_route(Pattern{2}, NodeId{7});
  t.add_route(Pattern{2}, NodeId{8});
  const auto targets =
      t.route_targets(*event_with({Pattern{1}, Pattern{2}}), NodeId::invalid());
  EXPECT_EQ(targets, (std::vector<NodeId>{NodeId{7}, NodeId{8}}));
}

TEST(SubscriptionTable, RouteTargetsExcludeUpstream) {
  SubscriptionTable t;
  t.add_route(Pattern{1}, NodeId{7});
  t.add_route(Pattern{1}, NodeId{8});
  const auto targets =
      t.route_targets(*event_with({Pattern{1}}), NodeId{7});
  EXPECT_EQ(targets, (std::vector<NodeId>{NodeId{8}}));
  const auto single = t.route_targets(Pattern{1}, NodeId{8});
  EXPECT_EQ(single, (std::vector<NodeId>{NodeId{7}}));
}

TEST(SubscriptionTable, LocalDoesNotCreateRouteTargets) {
  SubscriptionTable t;
  t.add_local(Pattern{1});
  EXPECT_TRUE(
      t.route_targets(*event_with({Pattern{1}}), NodeId::invalid()).empty());
}

TEST(SubscriptionTable, KnownVsLocalPatterns) {
  SubscriptionTable t;
  t.add_local(Pattern{1});
  t.add_route(Pattern{2}, NodeId{3});
  t.add_local(Pattern{2});
  EXPECT_EQ(t.known_patterns(), (std::vector<Pattern>{Pattern{1}, Pattern{2}}));
  EXPECT_EQ(t.local_patterns(), (std::vector<Pattern>{Pattern{1}, Pattern{2}}));
  t.remove_local(Pattern{1});
  EXPECT_EQ(t.known_patterns(), (std::vector<Pattern>{Pattern{2}}));
  EXPECT_EQ(t.local_patterns(), (std::vector<Pattern>{Pattern{2}}));
}

TEST(SubscriptionTable, RemoveNeighborDropsAllItsRoutes) {
  SubscriptionTable t;
  t.add_route(Pattern{1}, NodeId{3});
  t.add_route(Pattern{2}, NodeId{3});
  t.add_route(Pattern{2}, NodeId{4});
  t.add_local(Pattern{3});
  t.remove_neighbor(NodeId{3});
  EXPECT_FALSE(t.knows(Pattern{1}));
  EXPECT_TRUE(t.has_route(Pattern{2}, NodeId{4}));
  EXPECT_FALSE(t.has_route(Pattern{2}, NodeId{3}));
  EXPECT_TRUE(t.has_local(Pattern{3}));
}

TEST(SubscriptionTable, ClearRoutesKeepsLocal) {
  SubscriptionTable t;
  t.add_local(Pattern{1});
  t.add_route(Pattern{1}, NodeId{2});
  t.add_route(Pattern{5}, NodeId{2});
  t.clear_routes();
  EXPECT_TRUE(t.has_local(Pattern{1}));
  EXPECT_FALSE(t.has_route(Pattern{1}, NodeId{2}));
  EXPECT_FALSE(t.knows(Pattern{5}));
}

TEST(SubscriptionTable, EntryCountCountsLocalAndRoutes) {
  SubscriptionTable t;
  EXPECT_EQ(t.entry_count(), 0u);
  t.add_local(Pattern{1});
  t.add_route(Pattern{1}, NodeId{2});
  t.add_route(Pattern{2}, NodeId{3});
  EXPECT_EQ(t.entry_count(), 3u);
}

TEST(SubscriptionTable, IntoVariantsMatchAllocatingVariants) {
  SubscriptionTable t;
  t.add_local(Pattern{4});
  t.add_route(Pattern{4}, NodeId{1});
  t.add_route(Pattern{9}, NodeId{2});
  t.add_route(Pattern{9}, NodeId{5});
  t.add_local(Pattern{70});  // near the top of the paper's universe

  std::vector<Pattern> patterns{Pattern{999}};  // scratch must be cleared
  t.known_patterns_into(patterns);
  EXPECT_EQ(patterns, t.known_patterns());
  t.local_patterns_into(patterns);
  EXPECT_EQ(patterns, t.local_patterns());

  std::vector<NodeId> hops{NodeId{42}};
  t.route_targets_into(Pattern{9}, NodeId{5}, hops);
  EXPECT_EQ(hops, t.route_targets(Pattern{9}, NodeId{5}));
  const EventPtr ev = event_with({Pattern{4}, Pattern{9}});
  t.route_targets_into(*ev, NodeId::invalid(), hops);
  EXPECT_EQ(hops, t.route_targets(*ev, NodeId::invalid()));
}

TEST(SubscriptionTable, CountAndAtMatchKnownPatterns) {
  SubscriptionTable t;
  t.add_route(Pattern{63}, NodeId{1});
  t.add_local(Pattern{0});
  t.add_local(Pattern{64});
  const auto known = t.known_patterns();
  ASSERT_EQ(t.known_pattern_count(), known.size());
  for (std::size_t k = 0; k < known.size(); ++k)
    EXPECT_EQ(t.known_pattern_at(k), known[k]);
}

TEST(SubscriptionTable, MasksTrackLocalAndKnown) {
  SubscriptionTable t;
  t.add_local(Pattern{3});
  t.add_route(Pattern{5}, NodeId{1});
  EXPECT_TRUE(t.local_mask().test(Pattern{3}));
  EXPECT_FALSE(t.local_mask().test(Pattern{5}));
  EXPECT_TRUE(t.known_mask().test(Pattern{3}));
  EXPECT_TRUE(t.known_mask().test(Pattern{5}));
  t.remove_local(Pattern{3});
  EXPECT_FALSE(t.local_mask().test(Pattern{3}));
  EXPECT_FALSE(t.known_mask().test(Pattern{3}));
}

TEST(SubscriptionTable, OversizedPatternsStayOnMaskPath) {
  // Patterns beyond the inline mask width widen the masks and must behave
  // identically through every query and enumeration.
  const Pattern big{PatternSet::kInlineCapacity + 5};
  SubscriptionTable t;
  EXPECT_TRUE(t.add_local(big));
  EXPECT_FALSE(t.add_local(big));
  EXPECT_TRUE(t.add_route(big, NodeId{2}));
  t.add_local(Pattern{1});

  EXPECT_TRUE(t.has_local(big));
  EXPECT_TRUE(t.knows(big));
  EXPECT_TRUE(t.local_mask().test(big));
  EXPECT_EQ(t.known_patterns(), (std::vector<Pattern>{Pattern{1}, big}));
  EXPECT_EQ(t.local_patterns(), (std::vector<Pattern>{Pattern{1}, big}));
  ASSERT_EQ(t.known_pattern_count(), 2u);
  EXPECT_EQ(t.known_pattern_at(1), big);

  const EventPtr ev = event_with({big});
  EXPECT_TRUE(t.matches_local(*ev));
  EXPECT_EQ(t.route_targets(*ev, NodeId::invalid()),
            (std::vector<NodeId>{NodeId{2}}));

  EXPECT_TRUE(t.remove_route(big, NodeId{2}));
  EXPECT_TRUE(t.remove_local(big));
  EXPECT_FALSE(t.knows(big));
  EXPECT_EQ(t.known_patterns(), (std::vector<Pattern>{Pattern{1}}));
}

TEST(SubscriptionTable, MixedInlineAndWideEventMatching) {
  const Pattern big{200};
  SubscriptionTable t;
  t.add_route(Pattern{2}, NodeId{1});
  t.add_route(big, NodeId{3});
  const EventPtr ev = event_with({Pattern{2}, big});
  EXPECT_FALSE(t.matches_local(*ev));
  EXPECT_EQ(t.route_targets(*ev, NodeId::invalid()),
            (std::vector<NodeId>{NodeId{1}, NodeId{3}}));
  t.add_local(big);
  EXPECT_TRUE(t.matches_local(*ev));
}

TEST(SubscriptionTable, AddRoutesMatchesPerPatternAddRoute) {
  // The bulk install rebuild_routes() uses must leave the same table —
  // routes, known mask and memory footprint — as add_route per pattern.
  PatternSet first;
  first.set(Pattern{3});
  first.set(Pattern{130});
  first.set(Pattern{900});
  PatternSet second;
  second.set(Pattern{64});
  second.set(Pattern{1500});
  SubscriptionTable bulk;
  SubscriptionTable each;
  for (SubscriptionTable* t : {&bulk, &each}) t->add_local(Pattern{5});
  bulk.add_routes(NodeId{4}, first);
  bulk.add_routes(NodeId{2}, second);
  bulk.add_routes(NodeId{9}, PatternSet{});  // empty: no entry
  first.for_each([&](Pattern p) { each.add_route(p, NodeId{4}); });
  second.for_each([&](Pattern p) { each.add_route(p, NodeId{2}); });
  EXPECT_TRUE(bulk.known_mask() == each.known_mask());
  EXPECT_EQ(bulk.entry_count(), each.entry_count());
  EXPECT_EQ(bulk.memory_bytes(), each.memory_bytes());
  for (Pattern p : each.known_patterns()) {
    EXPECT_EQ(bulk.route_targets(p, NodeId::invalid()),
              each.route_targets(p, NodeId::invalid()));
  }
  EXPECT_TRUE(bulk.route_targets(Pattern{0}, NodeId::invalid()).empty());
  EXPECT_FALSE(bulk.has_route(Pattern{3}, NodeId{9}));
}

TEST(SubscriptionTable, MasksGrowForLargeUniverses) {
  SubscriptionTable t;
  t.add_local(Pattern{1999});
  t.add_route(Pattern{1500}, NodeId{3});
  EXPECT_TRUE(t.local_mask().test(Pattern{1999}));
  EXPECT_TRUE(t.known_mask().test(Pattern{1500}));
  EXPECT_EQ(t.route_targets(Pattern{1500}, NodeId::invalid()),
            (std::vector<NodeId>{NodeId{3}}));
  EXPECT_GT(t.memory_bytes(), 0u);
}

}  // namespace
}  // namespace epicast
