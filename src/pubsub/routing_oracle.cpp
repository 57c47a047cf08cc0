#include "epicast/pubsub/routing_oracle.hpp"

#include <algorithm>

#include "epicast/common/assert.hpp"
#include "epicast/pubsub/dispatcher.hpp"

namespace epicast {

RoutingOracle compute_routing_oracle(CsrAdjacency adjacency,
                                     std::span<const PatternSet> local) {
  const std::uint32_t n = adjacency.node_count();
  EPICAST_ASSERT(local.size() == n);
  const std::span<const std::uint32_t> offsets = adjacency.offsets;
  const std::span<const NodeId> neighbors = adjacency.neighbors;

  // Local masks are sparse (a few patterns of a wide universe), so each is
  // kept as its non-zero (word index, bits) pairs: a discovery then ORs a
  // word or two into its edge row instead of the universe's full width.
  struct MaskWord {
    std::uint32_t index;
    std::uint64_t bits;
  };
  std::vector<std::vector<MaskWord>> sparse(n);
  std::uint32_t width = 0;  // words per edge row
  for (std::uint32_t s = 0; s < n; ++s) {
    local[s].for_each([&](Pattern p) {
      const std::uint32_t index = p.value() / 64;
      const std::uint64_t bit = std::uint64_t{1} << (p.value() % 64);
      if (sparse[s].empty() || sparse[s].back().index != index) {
        sparse[s].push_back(MaskWord{index, 0});
      }
      sparse[s].back().bits |= bit;
      width = std::max(width, index + 1);
    });
  }

  // Row e, for slot e of u's adjacency: the patterns node neighbors[e]
  // routes towards u, because u discovered it through e.
  std::vector<std::uint64_t> edge_rows(neighbors.size() * width, 0);
  // queue[i] is the i-th node s's search discovered, via[i] the slot it
  // was discovered through. The scan writes both for every edge and only
  // advances `tail` past a new node: whether a neighbour was seen before
  // is a coin flip to the branch predictor, and the branch-free scan is
  // about a third faster on scale overlays.
  std::vector<std::uint32_t> stamp(n, 0);  // s + 1: seen in s's search
  std::vector<std::uint32_t> queue(n + 1);
  std::vector<std::uint32_t> via(n + 1);
  for (std::uint32_t s = 0; s < n; ++s) {
    if (sparse[s].empty()) continue;
    const std::uint32_t seen = s + 1;
    stamp[s] = seen;
    queue[0] = s;
    std::size_t tail = 1;
    for (std::size_t head = 0; head < tail; ++head) {
      const std::uint32_t cur = queue[head];
      for (std::uint32_t e = offsets[cur]; e < offsets[cur + 1]; ++e) {
        const std::uint32_t v = neighbors[e].value();
        const bool fresh = stamp[v] != seen;
        stamp[v] = seen;
        queue[tail] = v;
        via[tail] = e;
        tail += fresh ? 1 : 0;
      }
    }
    for (std::size_t i = 1; i < tail; ++i) {
      std::uint64_t* row = edge_rows.data() + std::size_t{via[i]} * width;
      for (const MaskWord& w : sparse[s]) row[w.index] |= w.bits;
    }
  }

  // Emit each non-empty edge row as its discovered node's row. Walking the
  // discoverers u in ascending order appends every node's rows in
  // ascending next-hop order, so no sort is needed.
  const auto row_of = [&](std::size_t e) {
    return std::span<const std::uint64_t>(edge_rows).subspan(e * width,
                                                             width);
  };
  const auto empty = [](std::span<const std::uint64_t> row) {
    return std::all_of(row.begin(), row.end(),
                       [](std::uint64_t w) { return w == 0; });
  };
  RoutingOracle out;
  out.offsets.assign(n + 1, 0);
  for (std::size_t e = 0; e < neighbors.size(); ++e) {
    if (!empty(row_of(e))) ++out.offsets[neighbors[e].value() + 1];
  }
  for (std::uint32_t v = 0; v < n; ++v) out.offsets[v + 1] += out.offsets[v];
  out.rows.resize(out.offsets[n]);
  std::vector<std::uint32_t> fill(out.offsets.begin(), out.offsets.end() - 1);
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint32_t e = offsets[u]; e < offsets[u + 1]; ++e) {
      const std::span<const std::uint64_t> words = row_of(e);
      if (empty(words)) continue;
      RouteRow& row = out.rows[fill[neighbors[e].value()]++];
      row.next_hop = NodeId{u};
      row.patterns.set_words(words);
    }
  }
  return out;
}

void install_oracle_routes(const RoutingOracle& oracle,
                           std::span<Dispatcher* const> here) {
  EPICAST_ASSERT(here.size() + 1 == oracle.offsets.size());
  for (std::uint32_t v = 0; v < here.size(); ++v) {
    Dispatcher* const node = here[v];
    for (const RouteRow& row : oracle.rows_of(NodeId{v})) {
      if (node != nullptr) node->table().add_routes(row.next_hop, row.patterns);
      if (Dispatcher* const hop = here[row.next_hop.value()]) {
        hop->note_sub_sent(row.patterns, NodeId{v});
      }
    }
  }
}

}  // namespace epicast
