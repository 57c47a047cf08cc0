// Unit tests for the Routes buffer used by publisher-based pull.
#include "epicast/gossip/routes_buffer.hpp"

#include <gtest/gtest.h>

namespace epicast {
namespace {

using Route = std::vector<NodeId>;

TEST(RoutesBuffer, StoresReversedRoute) {
  RoutesBuffer routes;
  routes.update(NodeId{0}, Route{NodeId{0}, NodeId{3}, NodeId{7}});
  EXPECT_TRUE(routes.knows(NodeId{0}));
  EXPECT_EQ(routes.route_to(NodeId{0}),
            (Route{NodeId{7}, NodeId{3}, NodeId{0}}));
}

TEST(RoutesBuffer, DirectNeighborRoute) {
  RoutesBuffer routes;
  routes.update(NodeId{4}, Route{NodeId{4}});
  EXPECT_EQ(routes.route_to(NodeId{4}), (Route{NodeId{4}}));
}

TEST(RoutesBuffer, MostRecentRouteWins) {
  RoutesBuffer routes;
  routes.update(NodeId{0}, Route{NodeId{0}, NodeId{1}});
  routes.update(NodeId{0}, Route{NodeId{0}, NodeId{2}, NodeId{5}});
  EXPECT_EQ(routes.route_to(NodeId{0}),
            (Route{NodeId{5}, NodeId{2}, NodeId{0}}));
  EXPECT_EQ(routes.size(), 1u);
}

TEST(RoutesBuffer, ShorterRouteAfterLongerLeavesNoStaleHops) {
  RoutesBuffer routes;
  routes.update(NodeId{0},
                Route{NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}, NodeId{4}});
  routes.update(NodeId{0}, Route{NodeId{0}, NodeId{6}});
  EXPECT_EQ(routes.route_to(NodeId{0}), (Route{NodeId{6}, NodeId{0}}));
  routes.update(NodeId{0}, Route{NodeId{0}});
  EXPECT_EQ(routes.route_to(NodeId{0}), (Route{NodeId{0}}));
}

TEST(RoutesBuffer, KeepsOnlyThePublisherPullTail) {
  // A publisher-bound digest visits the kTailHops forwarders nearest the
  // gossiper and then jumps to the publisher, so the buffer keeps the last
  // two hops of a 6-entry route, most recent first, and the source.
  ASSERT_EQ(RoutesBuffer::kTailHops, 2u);
  RoutesBuffer routes;
  const NodeId source{10};
  routes.update(source, Route{source, NodeId{11}, NodeId{12}, NodeId{13},
                              NodeId{14}, NodeId{15}});
  EXPECT_EQ(routes.route_to(source), (Route{NodeId{15}, NodeId{14}, source}));
}

TEST(RoutesBuffer, UnknownSourceYieldsEmpty) {
  RoutesBuffer routes;
  EXPECT_FALSE(routes.knows(NodeId{9}));
  EXPECT_TRUE(routes.route_to(NodeId{9}).empty());
}

TEST(RoutesBuffer, EmptyRouteIsIgnored) {
  RoutesBuffer routes;
  routes.update(NodeId{1}, Route{});
  EXPECT_FALSE(routes.knows(NodeId{1}));
}

TEST(RoutesBuffer, KnownSourcesSorted) {
  RoutesBuffer routes;
  routes.update(NodeId{5}, Route{NodeId{5}});
  routes.update(NodeId{1}, Route{NodeId{1}});
  routes.update(NodeId{3}, Route{NodeId{3}});
  EXPECT_EQ(routes.known_sources(), (Route{NodeId{1}, NodeId{3}, NodeId{5}}));
}

TEST(RoutesBufferDeath, RouteMustStartAtSource) {
  RoutesBuffer routes;
  EXPECT_DEATH(routes.update(NodeId{1}, Route{NodeId{2}, NodeId{1}}),
               "start at the publisher");
}

}  // namespace
}  // namespace epicast
