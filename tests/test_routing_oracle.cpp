// Model tests for the two all-pairs passes every scenario's set-up runs:
// Topology::mean_pairwise_distance (bit-parallel BFS) and
// compute_routing_oracle (one BFS per subscriber over CSR adjacency). Each
// is checked with exact equality against a plain serial model — one BFS
// per source or subscriber, written for clarity, not speed — over every
// overlay family, sizes around the 64-source word boundary, graphs with
// unreachable pairs, long-diameter graphs, and the sampled distance mode.
#include "epicast/pubsub/routing_oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "epicast/common/rng.hpp"
#include "epicast/net/overlays.hpp"
#include "epicast/net/topology.hpp"
#include "epicast/pubsub/network.hpp"

namespace epicast {
namespace {

constexpr OverlayKind kFamilies[] = {
    OverlayKind::Tree, OverlayKind::BarabasiAlbert, OverlayKind::WattsStrogatz,
    OverlayKind::RandomRegular, OverlayKind::GeoCluster};

/// The smallest N each family's generator accepts at degree 4.
std::uint32_t min_nodes(OverlayKind kind) {
  switch (kind) {
    case OverlayKind::Tree:
      return 1;
    case OverlayKind::WattsStrogatz:
      return 3;
    case OverlayKind::RandomRegular:
      return 5;
    default:
      return 2;
  }
}

/// Removes every link of `n`, leaving it isolated (and, on a tree, the
/// rest split into components): pairs across the cut become unreachable.
void isolate(Topology& t, NodeId n) {
  while (t.degree(n) > 0) t.remove_link(n, t.neighbors(n).front());
}

/// Serial model of mean_pairwise_distance: one BFS per sampled source,
/// summing distances to every reachable t > s.
double model_mean_distance(const Topology& t, std::uint32_t sample_sources) {
  const std::uint32_t n = t.node_count();
  if (n < 2) return 0.0;
  const std::uint32_t stride =
      (sample_sources == 0 || sample_sources >= n)
          ? 1
          : std::max(1u, n / sample_sources);
  std::uint64_t total = 0;
  std::uint64_t pairs = 0;
  std::vector<std::uint32_t> dist(n);
  std::vector<NodeId> queue;
  for (std::uint32_t s = 0; s < n; s += stride) {
    std::fill(dist.begin(), dist.end(), UINT32_MAX);
    dist[s] = 0;
    queue.assign(1, NodeId{s});
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId cur = queue[head];
      for (NodeId nxt : t.neighbors(cur)) {
        if (dist[nxt.value()] != UINT32_MAX) continue;
        dist[nxt.value()] = dist[cur.value()] + 1;
        queue.push_back(nxt);
      }
    }
    for (std::uint32_t v = s + 1; v < n; ++v) {
      if (dist[v] == UINT32_MAX) continue;
      total += dist[v];
      ++pairs;
    }
  }
  return pairs == 0 ? 0.0 : static_cast<double>(total) / pairs;
}

TEST(MeanPairwiseDistance, MatchesSerialBfsModelExactly) {
  std::uint64_t seed = 1;
  for (OverlayKind kind : kFamilies) {
    for (std::uint32_t n : {1u, 2u, 63u, 64u, 65u, 129u, 500u, 3000u}) {
      if (n < min_nodes(kind)) continue;
      Rng rng(seed++);
      Topology t = make_overlay(kind, n, 4, 0.1, rng);
      for (bool cut : {false, true}) {
        if (cut) isolate(t, NodeId{n / 2});
        for (std::uint32_t sample : {0u, 7u, 100u}) {
          // The serial model's full scan is O(N²): at N=3000 it runs once
          // per family, on the intact graph.
          if (cut && sample == 0 && n > 500) continue;
          // Exact: the same integer sums divided once, so == holds.
          EXPECT_EQ(t.mean_pairwise_distance(sample),
                    model_mean_distance(t, sample))
              << to_string(kind) << " n=" << n << " cut=" << cut
              << " sample=" << sample;
        }
      }
    }
  }
}

TEST(MeanPairwiseDistance, MatchesModelOnLongDiameterOverlays) {
  // A line and a ring lattice (Watts–Strogatz without rewiring) keep the
  // frontier to a few nodes for hundreds of levels, so most levels push
  // from the frontier instead of pulling over the whole CSR, and sampled
  // sources sit far apart and reach each node at different levels.
  for (std::uint32_t n : {65u, 500u, 3000u}) {
    Rng rng(n);
    const Topology graphs[] = {
        Topology::line(n),
        make_overlay(OverlayKind::WattsStrogatz, n, 4, 0.0, rng)};
    for (const Topology& t : graphs) {
      for (std::uint32_t sample : {0u, 7u, 100u}) {
        EXPECT_EQ(t.mean_pairwise_distance(sample),
                  model_mean_distance(t, sample))
            << "n=" << n << " max degree " << t.max_degree()
            << " sample=" << sample;
      }
    }
  }
}

TEST(MeanPairwiseDistance, HandComputedCases) {
  // Line of 5: distances 1·4 + 2·3 + 3·2 + 4·1 = 20 over 10 pairs.
  EXPECT_EQ(Topology::line(5).mean_pairwise_distance(), 2.0);
  // Star of 5: 4 pairs at 1, 6 pairs at 2 → 16/10.
  EXPECT_EQ(Topology::star(5).mean_pairwise_distance(), 1.6);
  // No links: no reachable pair at all.
  EXPECT_EQ(Topology(70, 4).mean_pairwise_distance(), 0.0);
  // Two components {0,1} and {2,3,4} (a line): pairs only within each.
  Topology two{5, 4};
  two.add_link(NodeId{0}, NodeId{1});
  two.add_link(NodeId{2}, NodeId{3});
  two.add_link(NodeId{3}, NodeId{4});
  EXPECT_EQ(two.mean_pairwise_distance(), (1.0 + 1 + 2 + 1) / 4);
}

// -- routing oracle -----------------------------------------------------------

struct ModelEntry {
  NodeId next_hop;
  PatternSet patterns;
};

/// The per-subscriber deque BFS the oracle replaced, kept as the model:
/// every node v reached from subscriber s routes s's local mask towards
/// pred(v), the node that first discovered it; entries sorted by next hop.
std::vector<std::vector<ModelEntry>> model_oracle(
    const Topology& topo, const std::vector<PatternSet>& local) {
  const std::uint32_t n = topo.node_count();
  std::vector<std::vector<ModelEntry>> oracle(n);
  std::vector<NodeId> pred(n);
  std::vector<bool> seen(n);
  std::vector<NodeId> order;
  for (std::uint32_t s = 0; s < n; ++s) {
    if (local[s].none()) continue;
    std::fill(seen.begin(), seen.end(), false);
    seen[s] = true;
    std::deque<NodeId> frontier{NodeId{s}};
    order.clear();
    while (!frontier.empty()) {
      const NodeId cur = frontier.front();
      frontier.pop_front();
      for (NodeId nxt : topo.neighbors(cur)) {
        if (seen[nxt.value()]) continue;
        seen[nxt.value()] = true;
        pred[nxt.value()] = cur;
        order.push_back(nxt);
        frontier.push_back(nxt);
      }
    }
    for (NodeId v : order) {
      auto& entries = oracle[v.value()];
      const NodeId hop = pred[v.value()];
      auto it = std::lower_bound(
          entries.begin(), entries.end(), hop,
          [](const ModelEntry& e, NodeId h) { return e.next_hop < h; });
      if (it == entries.end() || it->next_hop != hop) {
        it = entries.insert(it, ModelEntry{hop, PatternSet{}});
      }
      it->patterns |= local[s];
    }
  }
  return oracle;
}

/// Random local masks over `universe` patterns; about a third of the nodes
/// subscribe to nothing.
std::vector<PatternSet> random_masks(std::uint32_t n, std::uint32_t universe,
                                     Rng& rng) {
  std::vector<PatternSet> local(n);
  for (PatternSet& mask : local) {
    if (rng.next_below(3) == 0) continue;
    const std::uint64_t k = 1 + rng.next_below(3);
    for (std::uint64_t i = 0; i < k; ++i) {
      mask.set(Pattern{static_cast<std::uint32_t>(rng.next_below(universe))});
    }
  }
  return local;
}

void expect_oracle_matches_model(const Topology& topo,
                                 const std::vector<PatternSet>& local,
                                 const char* what) {
  const RoutingOracle got = compute_routing_oracle(topo.csr(), local);
  const auto want = model_oracle(topo, local);
  ASSERT_EQ(got.offsets.size(), topo.node_count() + 1u) << what;
  for (std::uint32_t v = 0; v < topo.node_count(); ++v) {
    const auto rows = got.rows_of(NodeId{v});
    ASSERT_EQ(rows.size(), want[v].size()) << what << " node " << v;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].next_hop, want[v][i].next_hop)
          << what << " node " << v << " row " << i;
      EXPECT_TRUE(rows[i].patterns == want[v][i].patterns)
          << what << " node " << v << " row " << i;
    }
  }
}

TEST(RoutingOracle, MatchesPerSubscriberBfsModelOnEveryFamily) {
  std::uint64_t seed = 100;
  for (OverlayKind kind : kFamilies) {
    for (std::uint32_t n : {2u, 65u, 300u}) {
      if (n < min_nodes(kind)) continue;
      Rng rng(seed++);
      Topology topo = make_overlay(kind, n, 4, 0.1, rng);
      // Narrow (inline) and wide (heap) pattern universes.
      for (std::uint32_t universe : {70u, 1000u}) {
        const std::vector<PatternSet> local = random_masks(n, universe, rng);
        SCOPED_TRACE(testing::Message() << to_string(kind) << " n=" << n
                                        << " universe=" << universe);
        expect_oracle_matches_model(topo, local, to_string(kind));
      }
    }
  }
}

TEST(RoutingOracle, MatchesModelAfterRemoveLink) {
  Rng rng(7);
  Topology topo = make_overlay(OverlayKind::BarabasiAlbert, 200, 4, 0.1, rng);
  const std::vector<PatternSet> local = random_masks(200, 70, rng);
  // Drop a hub link and isolate a node: neighbour order changes and some
  // subscribers become unreachable.
  topo.remove_link(NodeId{0}, topo.neighbors(NodeId{0}).front());
  isolate(topo, NodeId{150});
  expect_oracle_matches_model(topo, local, "after remove_link");

  Rng tree_rng(8);
  Topology tree = Topology::random_tree(120, 4, tree_rng);
  const Link cut = tree.links()[60];
  tree.remove_link(cut.a, cut.b);  // a two-component forest
  expect_oracle_matches_model(tree, random_masks(120, 70, tree_rng),
                              "forest");
}

TEST(RoutingOracle, EmptyMasksYieldNoRows) {
  const Topology topo = Topology::line(6);
  const std::vector<PatternSet> none(6);
  const RoutingOracle oracle = compute_routing_oracle(topo.csr(), none);
  EXPECT_TRUE(oracle.rows.empty());

  // A single subscriber at the end of a line: every other node routes its
  // pattern one step towards it.
  std::vector<PatternSet> one(6);
  one[5].set(Pattern{3});
  const RoutingOracle line = compute_routing_oracle(topo.csr(), one);
  EXPECT_TRUE(line.rows_of(NodeId{5}).empty());
  for (std::uint32_t v = 0; v < 5; ++v) {
    const auto rows = line.rows_of(NodeId{v});
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].next_hop, NodeId{v + 1});
    EXPECT_TRUE(rows[0].patterns.test(Pattern{3}));
    EXPECT_EQ(rows[0].patterns.count(), 1u);
  }
}

TEST(RoutingOracle, FirstDiscovererWinsTies) {
  // A 4-cycle 0—1—3—2—0, links added so node 0 lists 1 before 2: from
  // subscriber 0, node 3 is reached at distance 2 through both 1 and 2,
  // and the FIFO search dequeues 1 first — so 3 routes through 1.
  Topology t{4, 4};
  t.add_link(NodeId{0}, NodeId{1});
  t.add_link(NodeId{0}, NodeId{2});
  t.add_link(NodeId{1}, NodeId{3});
  t.add_link(NodeId{2}, NodeId{3});
  std::vector<PatternSet> local(4);
  local[0].set(Pattern{0});
  const RoutingOracle oracle = compute_routing_oracle(t.csr(), local);
  const auto rows = oracle.rows_of(NodeId{3});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].next_hop, NodeId{1});
}

TEST(RoutingOracle, RebuildInstallsOracleRowsAndSuppressionMarks) {
  // rebuild_routes() on a cyclic overlay installs exactly the oracle's rows
  // (routes_consistent() re-derives them) plus the matching sub-sent marks.
  Simulator sim(3);
  Rng topo_rng = sim.fork_rng();
  Topology topo = make_overlay(OverlayKind::WattsStrogatz, 80, 4, 0.2,
                               topo_rng);
  TransportConfig tc;
  tc.link.loss_rate = 0.0;
  Transport transport(sim, topo, tc);
  PubSubNetwork net(transport, DispatcherConfig{});
  Rng rng = sim.fork_rng();
  const std::vector<PatternSet> local = random_masks(80, 1000, rng);
  for (std::uint32_t v = 0; v < 80; ++v) {
    local[v].for_each(
        [&](Pattern p) { net.node(NodeId{v}).subscribe_local(p); });
  }
  net.rebuild_routes();
  EXPECT_TRUE(net.routes_consistent());

  const auto model = model_oracle(topo, local);
  for (std::uint32_t v = 0; v < 80; ++v) {
    for (const ModelEntry& e : model[v]) {
      e.patterns.for_each([&](Pattern p) {
        EXPECT_TRUE(net.node(NodeId{v}).table().has_route(p, e.next_hop));
        EXPECT_TRUE(net.node(e.next_hop).sub_sent(p, NodeId{v}));
      });
    }
  }
}

}  // namespace
}  // namespace epicast
