// Example: the paper's Figure 1, executable.
//
// §II illustrates subscription forwarding with a dispatching network where
// two dispatchers subscribe to a "black" pattern and one to a "gray"
// pattern; the subscription tables then encode the reverse-path routes the
// arrows in the figure show. This example builds such a network, lets the
// protocol lay the routes down, prints every dispatcher's table, and
// publishes one event per pattern to show who receives what.
#include <iostream>

#include "epicast/epicast.hpp"

int main() {
  using namespace epicast;

  // A small unrooted tree (ids in parentheses):
  //
  //        (1)       (4) black
  //         |         |
  //  (0) — (2) ————— (3)
  //         |         |
  //        (5) gray  (6) black
  //
  Simulator sim(1);
  Topology topo(7, 4);
  topo.add_link(NodeId{0}, NodeId{2});
  topo.add_link(NodeId{1}, NodeId{2});
  topo.add_link(NodeId{2}, NodeId{3});
  topo.add_link(NodeId{2}, NodeId{5});
  topo.add_link(NodeId{3}, NodeId{4});
  topo.add_link(NodeId{3}, NodeId{6});

  TransportConfig tc;
  tc.link.loss_rate = 0.0;
  Transport transport(sim, topo, tc);
  PubSubNetwork net(transport, DispatcherConfig{});

  const Pattern black{0};
  const Pattern gray{1};
  net.node(NodeId{4}).subscribe(black);
  net.node(NodeId{6}).subscribe(black);
  net.node(NodeId{5}).subscribe(gray);
  sim.run_until(SimTime::seconds(0.5));  // floods settle

  auto pattern_name = [&](Pattern p) {
    return p == black ? "black" : "gray";
  };

  std::cout << "subscription tables after forwarding (cf. paper Fig. 1):\n";
  for (std::uint32_t i = 0; i < 7; ++i) {
    const auto& table = net.node(NodeId{i}).table();
    std::cout << "  dispatcher " << i << ":";
    bool any = false;
    for (Pattern p : {black, gray}) {
      if (table.has_local(p)) {
        std::cout << "  [" << pattern_name(p) << ": local]";
        any = true;
      }
      const auto hops = table.route_targets(p, NodeId::invalid());
      if (!hops.empty()) {
        std::cout << "  [" << pattern_name(p) << " ->";
        for (NodeId h : hops) std::cout << " " << h.value();
        std::cout << "]";
        any = true;
      }
    }
    if (!any) std::cout << "  (empty)";
    std::cout << '\n';
  }

  std::cout << "\npublishing from dispatcher 0:\n";
  net.set_delivery_listener([&](NodeId node, const EventPtr& e, bool) {
    std::cout << "  " << pattern_name(e->patterns()[0].pattern)
              << " event delivered at dispatcher " << node.value() << '\n';
  });
  net.node(NodeId{0}).publish({black});
  net.node(NodeId{0}).publish({gray});
  sim.run_until(SimTime::seconds(1.0));

  std::cout << "\nThe black event followed 0->2->3->{4,6}; the gray event "
               "stopped at 5.\nBoth routes share the single tree — the "
               "reason content-based systems\nuse one unrooted tree instead "
               "of per-subject trees (§II).\n";
  return 0;
}
