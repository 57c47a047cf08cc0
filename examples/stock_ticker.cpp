// Example: a market-data fan-out over an unreliable wide-area overlay.
//
// A brokerage distributes per-symbol tick streams through a tree of
// dispatching servers. Each symbol is one content pattern; trading desks
// subscribe to the handful of symbols they care about. WAN links drop
// messages (ε = 8%), which is fatal for tick streams — a missed tick means
// a stale book. The desks therefore run combined-pull epidemic recovery:
// sequence gaps in a symbol stream reveal losses, and the missing ticks are
// pulled from other desks subscribed to the same symbol or straight from
// the publishing exchange gateway.
//
// This example assembles the stack by hand (no ScenarioRunner) to show the
// mid-level API: Topology → Transport → PubSubNetwork → make_recovery.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "epicast/epicast.hpp"

int main() {
  using namespace epicast;

  // --- the overlay: 24 dispatching servers, degree ≤ 4, lossy WAN links ---
  Simulator sim(2026);
  Rng topo_rng = sim.fork_rng();
  Topology topology = Topology::random_tree(24, 4, topo_rng);

  TransportConfig net_cfg;
  net_cfg.link.bandwidth_bps = 10e6;
  net_cfg.link.loss_rate = 0.08;      // flaky WAN
  net_cfg.direct_loss_rate = 0.08;    // recovery shares the same fabric
  Transport transport(sim, topology, net_cfg);

  MessageStats traffic(24);
  transport.add_observer(traffic);

  DispatcherConfig dc;
  dc.default_payload_bytes = 160;  // a tick is small
  dc.record_routes = true;         // combined pull needs routes to gateways
  PubSubNetwork network(transport, dc);

  // --- symbols and desks ---
  const std::vector<std::string> symbols = {"ACME", "GLOBO", "INITECH",
                                            "HOOLI", "UMBRL", "WAYNE"};
  auto pattern_of = [&](const std::string& sym) {
    for (std::uint32_t i = 0; i < symbols.size(); ++i) {
      if (symbols[i] == sym) return Pattern{i};
    }
    return Pattern{0};
  };

  // Node 0 and 1 are exchange gateways (publishers). Nodes 2.. are desks,
  // each watching two symbols.
  std::map<std::uint32_t, std::vector<std::string>> desk_books;
  Rng pick = sim.fork_rng();
  for (std::uint32_t desk = 2; desk < 24; ++desk) {
    const auto a = symbols[pick.next_below(symbols.size())];
    auto b = symbols[pick.next_below(symbols.size())];
    while (b == a) b = symbols[pick.next_below(symbols.size())];
    desk_books[desk] = {a, b};
    network.node(NodeId{desk}).subscribe(pattern_of(a));
    network.node(NodeId{desk}).subscribe(pattern_of(b));
  }
  sim.run_until(SimTime::seconds(0.5));  // let subscription floods settle

  // --- attach combined-pull recovery to every server ---
  GossipConfig gossip;
  gossip.interval = Duration::millis(25);
  gossip.buffer_size = 2000;
  network.for_each([&](Dispatcher& d) {
    d.set_recovery(make_recovery(Algorithm::CombinedPull, d, gossip));
    d.recovery()->start();
  });

  // --- metrics: per-desk tick counts and recoveries ---
  std::map<std::uint32_t, std::uint64_t> ticks_received;
  std::map<std::uint32_t, std::uint64_t> ticks_recovered;
  network.set_delivery_listener(
      [&](NodeId node, const EventPtr&, bool recovered) {
        ++ticks_received[node.value()];
        if (recovered) ++ticks_recovered[node.value()];
      });

  // --- the feed: both gateways tick every symbol 40×/s for 10 s ---
  std::uint64_t published = 0;
  runtime::PeriodicTimer feed =
      sim.every(Duration::millis(1), Duration::millis(25), [&]() {
        if (sim.now() > SimTime::seconds(10.0)) return;
        for (std::uint32_t gw : {0u, 1u}) {
          for (const auto& sym : symbols) {
            network.node(NodeId{gw}).publish({pattern_of(sym)});
            ++published;
          }
        }
      });

  sim.run_until(SimTime::seconds(13.0));  // feed + 3 s recovery tail

  // --- report ---
  std::printf("stock ticker over a lossy overlay (eps = %.0f%%)\n",
              100.0 * net_cfg.link.loss_rate);
  std::printf("published %llu ticks from 2 gateways across %zu symbols\n\n",
              static_cast<unsigned long long>(published), symbols.size());
  std::printf("%-6s %-14s %10s %12s %10s\n", "desk", "book", "ticks",
              "recovered", "rec %");
  std::uint64_t total = 0, recovered_total = 0;
  for (const auto& [desk, book] : desk_books) {
    const std::uint64_t got = ticks_received[desk];
    const std::uint64_t rec = ticks_recovered[desk];
    total += got;
    recovered_total += rec;
    std::printf("%-6u %-14s %10llu %12llu %9.1f%%\n", desk,
                (book[0] + "," + book[1]).c_str(),
                static_cast<unsigned long long>(got),
                static_cast<unsigned long long>(rec),
                got ? 100.0 * rec / got : 0.0);
  }
  const auto snap = traffic.snapshot();
  std::printf("\nfleet total: %llu ticks delivered, %llu (%.1f%%) via "
              "epidemic recovery\n",
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(recovered_total),
              total ? 100.0 * recovered_total / total : 0.0);
  std::printf("traffic: %llu tick hops, %llu gossip messages "
              "(ratio %.2f)\n",
              static_cast<unsigned long long>(snap.event_sends()),
              static_cast<unsigned long long>(snap.gossip_sends()),
              snap.gossip_event_ratio());
  return 0;
}
