#include "epicast/net/topology.hpp"

#include <algorithm>
#include <bit>

#include "epicast/common/assert.hpp"

namespace epicast {

Topology::Topology(std::uint32_t node_count, std::uint32_t max_degree)
    : adj_(node_count), max_degree_(max_degree) {
  EPICAST_ASSERT(max_degree >= 1 || node_count <= 1);
}

Topology Topology::random_tree(std::uint32_t node_count,
                               std::uint32_t max_degree, Rng& rng) {
  EPICAST_ASSERT(node_count >= 1);
  EPICAST_ASSERT_MSG(max_degree >= 2 || node_count <= 2,
                     "a tree over >2 nodes needs max_degree >= 2");
  Topology t{node_count, max_degree};

  // Random insertion order, so node ids carry no structural bias.
  std::vector<std::uint32_t> order(node_count);
  for (std::uint32_t i = 0; i < node_count; ++i) order[i] = i;
  for (std::uint32_t i = node_count; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }

  // `open` holds already-attached nodes with degree headroom. Attachment
  // uses power-of-two-choices on depth (pick two candidates, keep the
  // shallower): still random, but avoids the long chains a uniform pick
  // produces, keeping mean hop distances near the paper's regime (ε = 0.05
  // → ~75% baseline delivery implies ~5–6 hops between random nodes).
  std::vector<std::uint32_t> open;
  std::vector<std::uint32_t> depth(node_count, 0);
  open.push_back(order[0]);
  for (std::uint32_t i = 1; i < node_count; ++i) {
    EPICAST_ASSERT_MSG(!open.empty(), "degree cap made the tree infeasible");
    std::size_t pick = rng.next_below(open.size());
    const std::size_t alt = rng.next_below(open.size());
    if (depth[open[alt]] < depth[open[pick]]) pick = alt;
    const std::uint32_t parent = open[pick];
    const std::uint32_t child = order[i];
    t.add_link(NodeId{parent}, NodeId{child});
    depth[child] = depth[parent] + 1;
    if (t.degree(NodeId{parent}) >= max_degree) {
      open[pick] = open.back();
      open.pop_back();
    }
    if (t.degree(NodeId{child}) < max_degree) open.push_back(child);
  }
  return t;
}

Topology Topology::line(std::uint32_t node_count) {
  Topology t{node_count, 2};
  for (std::uint32_t i = 1; i < node_count; ++i) {
    t.add_link(NodeId{i - 1}, NodeId{i});
  }
  return t;
}

Topology Topology::star(std::uint32_t node_count) {
  EPICAST_ASSERT(node_count >= 1);
  Topology t{node_count, node_count > 1 ? node_count - 1 : 1};
  for (std::uint32_t i = 1; i < node_count; ++i) {
    t.add_link(NodeId{0}, NodeId{i});
  }
  return t;
}

void Topology::check_node(NodeId n) const {
  EPICAST_ASSERT_MSG(n.valid() && n.value() < adj_.size(),
                     "node id out of range");
}

void Topology::repack_if_stale() const {
  if (flat_version_ == version_) return;
  flat_offsets_.resize(adj_.size() + 1);
  flat_neighbors_.clear();
  flat_neighbors_.reserve(2 * link_count_);
  flat_offsets_[0] = 0;
  for (std::size_t i = 0; i < adj_.size(); ++i) {
    flat_neighbors_.insert(flat_neighbors_.end(), adj_[i].begin(),
                           adj_[i].end());
    flat_offsets_[i + 1] = static_cast<std::uint32_t>(flat_neighbors_.size());
  }
  flat_version_ = version_;
}

std::uint32_t Topology::fresh_visit_stamp() const {
  if (visit_stamp_.size() != adj_.size()) {
    visit_stamp_.assign(adj_.size(), 0);
    visit_epoch_ = 0;
  }
  if (++visit_epoch_ == 0) {  // epoch wrapped: flush stale stamps once
    std::fill(visit_stamp_.begin(), visit_stamp_.end(), 0);
    visit_epoch_ = 1;
  }
  return visit_epoch_;
}

bool Topology::has_link(NodeId a, NodeId b) const {
  check_node(a);
  check_node(b);
  const auto& na = adj_[a.value()];
  return std::find(na.begin(), na.end(), b) != na.end();
}

std::span<const NodeId> Topology::neighbors(NodeId n) const {
  check_node(n);
  repack_if_stale();
  const std::uint32_t begin = flat_offsets_[n.value()];
  const std::uint32_t end = flat_offsets_[n.value() + 1];
  return {flat_neighbors_.data() + begin, end - begin};
}

CsrAdjacency Topology::csr() const {
  repack_if_stale();
  return {flat_offsets_, flat_neighbors_};
}

std::uint32_t Topology::degree(NodeId n) const {
  check_node(n);
  return static_cast<std::uint32_t>(adj_[n.value()].size());
}

void Topology::add_link(NodeId a, NodeId b) {
  check_node(a);
  check_node(b);
  EPICAST_ASSERT_MSG(a != b, "self-links are not allowed");
  EPICAST_ASSERT_MSG(!has_link(a, b), "link already present");
  EPICAST_ASSERT_MSG(degree(a) < max_degree_ && degree(b) < max_degree_,
                     "degree cap exceeded");
  adj_[a.value()].push_back(b);
  adj_[b.value()].push_back(a);
  ++link_count_;
  ++version_;
  const Link link{a, b};
  for (const auto& l : listeners_) l(link, /*added=*/true);
}

void Topology::remove_link(NodeId a, NodeId b) {
  check_node(a);
  check_node(b);
  EPICAST_ASSERT_MSG(has_link(a, b), "link not present");
  auto erase_from = [](std::vector<NodeId>& v, NodeId x) {
    v.erase(std::find(v.begin(), v.end(), x));
  };
  erase_from(adj_[a.value()], b);
  erase_from(adj_[b.value()], a);
  --link_count_;
  ++version_;
  const Link link{a, b};
  for (const auto& l : listeners_) l(link, /*added=*/false);
}

std::vector<Link> Topology::links() const {
  std::vector<Link> out;
  out.reserve(link_count_);
  for (std::uint32_t i = 0; i < adj_.size(); ++i) {
    for (NodeId j : adj_[i]) {
      if (j.value() > i) out.emplace_back(NodeId{i}, j);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool Topology::connected() const {
  if (adj_.empty()) return true;
  return component_of(NodeId{0}).size() == adj_.size();
}

bool Topology::is_tree() const {
  return adj_.empty() ||
         (connected() && link_count_ == adj_.size() - 1);
}

std::optional<std::vector<NodeId>> Topology::path(NodeId from,
                                                  NodeId to) const {
  check_node(from);
  check_node(to);
  if (from == to) return std::vector<NodeId>{from};

  // Stamp-based visited marks + reused queue/parent scratch: this sits on
  // the Reconfigurator repair path, where per-call vectors of size N were
  // measurable at N >= 10k.
  const std::uint32_t stamp = fresh_visit_stamp();
  bfs_parent_.resize(adj_.size());
  bfs_parent_[from.value()] = NodeId::invalid();
  bfs_queue_.clear();
  bfs_queue_.push_back(from);
  visit_stamp_[from.value()] = stamp;
  for (std::size_t head = 0; head < bfs_queue_.size(); ++head) {
    const NodeId cur = bfs_queue_[head];
    for (NodeId nxt : adj_[cur.value()]) {
      if (visit_stamp_[nxt.value()] == stamp) continue;
      visit_stamp_[nxt.value()] = stamp;
      bfs_parent_[nxt.value()] = cur;
      if (nxt == to) {
        std::vector<NodeId> rev{to};
        for (NodeId p = cur; p.valid(); p = bfs_parent_[p.value()]) {
          rev.push_back(p);
        }
        std::reverse(rev.begin(), rev.end());
        return rev;
      }
      bfs_queue_.push_back(nxt);
    }
  }
  return std::nullopt;
}

std::optional<std::uint32_t> Topology::distance(NodeId from, NodeId to) const {
  auto p = path(from, to);
  if (!p) return std::nullopt;
  return static_cast<std::uint32_t>(p->size() - 1);
}

std::vector<NodeId> Topology::component_of(NodeId n) const {
  check_node(n);
  const std::uint32_t stamp = fresh_visit_stamp();
  std::vector<NodeId> out{n};
  visit_stamp_[n.value()] = stamp;
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (NodeId nxt : adj_[out[i].value()]) {
      if (visit_stamp_[nxt.value()] != stamp) {
        visit_stamp_[nxt.value()] = stamp;
        out.push_back(nxt);
      }
    }
  }
  return out;
}

double Topology::mean_pairwise_distance(std::uint32_t sample_sources) const {
  // Level-synchronous BFS from up to 64 sources at once, one bit per source:
  // a node's next frontier is the OR of its neighbours' frontiers minus the
  // sources it has already seen, so one level advances all 64 searches. A
  // bit first reaching t at level d is the pair (source, t) at distance d;
  // sums are exact integers over pairs with t > s, so the mean is the
  // serial per-source BFS's to the last bit.
  //
  // A level runs one of two ways, with the same result. While the frontier
  // is large, every node pulls its neighbours' frontiers in one pass over
  // the CSR. While it is small, only frontier nodes push their bits to
  // their neighbours: on a long-diameter overlay (a ring lattice, a line)
  // most levels reach a handful of nodes, and a full pass per level would
  // cost up to diameter/64 serial BFSs per batch.
  const std::uint32_t n = node_count();
  if (n < 2) return 0.0;
  const std::uint32_t stride =
      (sample_sources == 0 || sample_sources >= n)
          ? 1
          : std::max(1u, n / sample_sources);
  repack_if_stale();
  const auto degree_of = [this](std::uint32_t v) -> std::uint64_t {
    return flat_offsets_[v + 1] - flat_offsets_[v];
  };
  // Pull once the frontier's neighbour slots pass a quarter of a full pass:
  // a pushed slot is a scattered read-modify-write, a pulled one a streamed
  // read (of 1, 2, 4 and 8, 4 had the best worst case over all five overlay
  // families, rings and lines).
  const std::uint64_t pull_slots = (n + flat_neighbors_.size()) / 4;
  std::vector<std::uint64_t> seen(n);
  std::vector<std::uint64_t> frontier(n);  // non-zero only at `active`
  std::vector<std::uint64_t> next(n);      // all zero between levels
  std::vector<std::uint32_t> active;
  std::vector<std::uint32_t> fresh;
  std::vector<std::uint32_t> touched;
  std::uint64_t total = 0;
  std::uint64_t pairs = 0;
  // Sources first, first + stride, … (at most 64, all < n) share a batch.
  for (std::uint64_t first = 0; first < n; first += 64ULL * stride) {
    std::fill(seen.begin(), seen.end(), 0);
    std::uint64_t active_slots = 0;
    for (std::uint64_t i = 0, s = first; i < 64 && s < n; ++i, s += stride) {
      seen[s] = frontier[s] = std::uint64_t{1} << i;
      active.push_back(static_cast<std::uint32_t>(s));
      active_slots += degree_of(static_cast<std::uint32_t>(s));
    }
    // Bits of the batch's sources s < t: a prefix, as sources ascend.
    const auto below = [&](std::uint32_t t) -> std::uint64_t {
      if (t <= first) return 0;
      const std::uint64_t k = (t - first + stride - 1) / stride;
      return k >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << k) - 1;
    };
    for (std::uint64_t d = 1; !active.empty(); ++d) {
      fresh.clear();
      std::uint64_t fresh_slots = 0;
      // The bits `reach` first reached v at level d.
      const auto arrive = [&](std::uint32_t v, std::uint64_t reach) {
        seen[v] |= reach;
        fresh.push_back(v);
        fresh_slots += degree_of(v);
        const auto counted =
            static_cast<std::uint64_t>(std::popcount(reach & below(v)));
        total += d * counted;
        pairs += counted;
      };
      if (active_slots > pull_slots) {
        for (std::uint32_t v = 0; v < n; ++v) {
          std::uint64_t reach = 0;
          for (std::uint32_t e = flat_offsets_[v]; e < flat_offsets_[v + 1];
               ++e) {
            reach |= frontier[flat_neighbors_[e].value()];
          }
          reach &= ~seen[v];
          next[v] = reach;
          if (reach != 0) arrive(v, reach);
        }
        for (std::uint32_t u : active) frontier[u] = 0;
        frontier.swap(next);
      } else {
        touched.clear();
        for (std::uint32_t u : active) {
          for (std::uint32_t e = flat_offsets_[u]; e < flat_offsets_[u + 1];
               ++e) {
            const std::uint32_t v = flat_neighbors_[e].value();
            if (next[v] == 0) touched.push_back(v);
            next[v] |= frontier[u];
          }
          frontier[u] = 0;
        }
        for (std::uint32_t v : touched) {
          const std::uint64_t reach = next[v] & ~seen[v];
          next[v] = 0;
          frontier[v] = reach;
          if (reach != 0) arrive(v, reach);
        }
      }
      active.swap(fresh);
      active_slots = fresh_slots;
    }
  }
  return pairs == 0 ? 0.0 : static_cast<double>(total) / pairs;
}

std::size_t Topology::memory_bytes() const {
  std::size_t n = adj_.capacity() * sizeof(adj_[0]);
  for (const auto& row : adj_) n += row.capacity() * sizeof(NodeId);
  n += flat_offsets_.capacity() * sizeof(std::uint32_t);
  n += flat_neighbors_.capacity() * sizeof(NodeId);
  n += visit_stamp_.capacity() * sizeof(std::uint32_t);
  n += bfs_queue_.capacity() * sizeof(NodeId);
  n += bfs_parent_.capacity() * sizeof(NodeId);
  return n;
}

std::string Topology::to_dot() const {
  std::string out = "graph overlay {\n  node [shape=circle];\n";
  for (const Link& l : links()) {
    out += "  " + std::to_string(l.a.value()) + " -- " +
           std::to_string(l.b.value()) + ";\n";
  }
  out += "}\n";
  return out;
}

void Topology::add_change_listener(ChangeListener listener) {
  EPICAST_ASSERT(listener != nullptr);
  listeners_.push_back(std::move(listener));
}

}  // namespace epicast
