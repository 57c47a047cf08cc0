// Example: forensic tracing of a single lost event.
//
// Builds a 5-node chain with subscriber-pull recovery, drops one specific
// event on one specific hop via the transport's fault filter, and then uses
// TraceLog::history_of to print everything that ever happened to that event
// — the send that died, the gossip that noticed, the retransmission that
// fixed it. This is the workflow for debugging recovery behaviour without
// a debugger.
#include <iostream>

#include "epicast/epicast.hpp"
#include "epicast/metrics/trace.hpp"

int main() {
  using namespace epicast;

  Simulator sim(7);
  Topology topo = Topology::line(5);
  TransportConfig tc;
  tc.link.loss_rate = 0.0;  // all loss in this demo is injected
  Transport transport(sim, topo, tc);

  TraceLog trace(sim, 4096);
  transport.add_observer(trace);
  topo.add_change_listener([&trace](const Link& l, bool added) {
    trace.record_link_change(l, added);
  });

  PubSubNetwork net(transport, DispatcherConfig{});
  net.set_delivery_listener(
      [&trace](NodeId node, const EventPtr& e, bool recovered) {
        trace.record_delivery(node, e->id(), recovered);
      });

  // Ends of the chain subscribe to the same pattern.
  net.node(NodeId{0}).subscribe(Pattern{42});
  net.node(NodeId{4}).subscribe(Pattern{42});
  sim.run_until(SimTime::seconds(0.5));

  GossipConfig gossip;
  gossip.interval = Duration::millis(25);
  net.for_each([&](Dispatcher& d) {
    d.set_recovery(make_recovery(Algorithm::SubscriberPull, d, gossip));
    d.recovery()->start();
  });

  // Publish three events; assassinate the second on the 3→4 hop.
  auto& publisher = net.node(NodeId{0});
  (void)publisher.publish({Pattern{42}});
  sim.run_until(SimTime::seconds(0.6));
  const EventPtr victim = publisher.publish({Pattern{42}});
  transport.add_fault_filter(
      [id = victim->id()](NodeId from, NodeId to, const Message& m, bool) {
        if (m.message_class() != MessageClass::Event) return true;
        const auto& em = static_cast<const EventMessage&>(m);
        return !(from == NodeId{3} && to == NodeId{4} &&
                 em.event()->id() == id);
      });
  sim.run_until(SimTime::seconds(0.7));
  (void)publisher.publish({Pattern{42}});  // reveals the gap at node 4
  sim.run_until(SimTime::seconds(3.0));

  std::cout << "history of the assassinated event ("
            << victim->id().source.value() << "," << victim->id().source_seq
            << "):\n\n";
  for (const TraceRecord& r : trace.history_of(victim->id())) {
    std::ostringstream line;
    trace.dump(line, 0);  // full dump available; print selectively instead
    std::cout << "  " << to_string(r.at) << "  " << to_string(r.kind);
    if (r.kind == TraceKind::Delivery) {
      std::cout << " at node " << r.from.value()
                << (r.flag ? " (via recovery)" : "");
    } else {
      std::cout << "  " << r.from.value() << " -> " << r.to.value();
    }
    std::cout << '\n';
  }

  std::cout << "\ngossip traffic that fixed it:\n";
  for (const TraceRecord& r : trace.of_kind(TraceKind::Send)) {
    if (!is_gossip(r.message_class)) continue;
    std::cout << "  " << to_string(r.at) << "  "
              << to_string(r.message_class) << "  " << r.from.value()
              << (r.overlay ? " -> " : " ~> ") << r.to.value() << '\n';
  }
  return 0;
}
