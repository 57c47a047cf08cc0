// Unit tests for the Routes buffer used by publisher-based pull.
#include "epicast/gossip/routes_buffer.hpp"

#include <gtest/gtest.h>

namespace epicast {
namespace {

TEST(RoutesBuffer, StoresReversedRoute) {
  RoutesBuffer routes;
  routes.update(NodeId{0}, {NodeId{0}, NodeId{3}, NodeId{7}});
  EXPECT_TRUE(routes.knows(NodeId{0}));
  EXPECT_EQ(routes.route_to(NodeId{0}),
            (std::vector<NodeId>{NodeId{7}, NodeId{3}, NodeId{0}}));
}

TEST(RoutesBuffer, DirectNeighborRoute) {
  RoutesBuffer routes;
  routes.update(NodeId{4}, {NodeId{4}});
  EXPECT_EQ(routes.route_to(NodeId{4}), (std::vector<NodeId>{NodeId{4}}));
}

TEST(RoutesBuffer, MostRecentRouteWins) {
  RoutesBuffer routes;
  routes.update(NodeId{0}, {NodeId{0}, NodeId{1}});
  routes.update(NodeId{0}, {NodeId{0}, NodeId{2}, NodeId{5}});
  EXPECT_EQ(routes.route_to(NodeId{0}),
            (std::vector<NodeId>{NodeId{5}, NodeId{2}, NodeId{0}}));
  EXPECT_EQ(routes.size(), 1u);
}

TEST(RoutesBuffer, ShorterRouteAfterLongerLeavesNoStaleHops) {
  RoutesBuffer routes;
  routes.update(NodeId{0},
                {NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}, NodeId{4}});
  routes.update(NodeId{0}, {NodeId{0}, NodeId{6}});
  EXPECT_EQ(routes.route_to(NodeId{0}),
            (std::vector<NodeId>{NodeId{6}, NodeId{0}}));
  routes.update(NodeId{0}, {NodeId{0}});
  EXPECT_EQ(routes.route_to(NodeId{0}), (std::vector<NodeId>{NodeId{0}}));
}

TEST(RoutesBuffer, UnknownSourceYieldsEmpty) {
  RoutesBuffer routes;
  EXPECT_FALSE(routes.knows(NodeId{9}));
  EXPECT_TRUE(routes.route_to(NodeId{9}).empty());
}

TEST(RoutesBuffer, EmptyRouteIsIgnored) {
  RoutesBuffer routes;
  routes.update(NodeId{1}, {});
  EXPECT_FALSE(routes.knows(NodeId{1}));
}

TEST(RoutesBuffer, KnownSourcesSorted) {
  RoutesBuffer routes;
  routes.update(NodeId{5}, {NodeId{5}});
  routes.update(NodeId{1}, {NodeId{1}});
  routes.update(NodeId{3}, {NodeId{3}});
  EXPECT_EQ(routes.known_sources(),
            (std::vector<NodeId>{NodeId{1}, NodeId{3}, NodeId{5}}));
}

TEST(RoutesBufferDeath, RouteMustStartAtSource) {
  RoutesBuffer routes;
  EXPECT_DEATH(routes.update(NodeId{1}, {NodeId{2}, NodeId{1}}),
               "start at the publisher");
}

}  // namespace
}  // namespace epicast
