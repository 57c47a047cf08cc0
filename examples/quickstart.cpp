// epicast quickstart.
//
// Builds a small content-based pub-sub dispatching network on lossy links,
// runs it once with no recovery and once with the paper's combined-pull
// epidemic recovery, and prints what changed. This is the ~60-second tour of
// the public API; see examples/stock_ticker.cpp and examples/mobile_fleet.cpp
// for lower-level usage.
#include <iostream>

#include "epicast/epicast.hpp"

int main() {
  using namespace epicast;

  // A scenario is the paper's Fig. 2 parameter table; paper_defaults() gives
  // the published values (N=100, Π=70, πmax=2, 50 publish/s, ε=0.1, β=1500,
  // T=0.03 s). We shrink it a little so the quickstart finishes in seconds.
  ScenarioConfig base = ScenarioConfig::paper_defaults(Algorithm::NoRecovery);
  base.nodes = 50;
  base.link_error_rate = 0.1;  // every overlay hop drops 10% of messages
  base.measure = Duration::seconds(4.0);
  base.seed = 42;

  std::cout << "epicast quickstart — " << base.nodes
            << " dispatchers on a degree-" << ScenarioConfig::kTreeMaxDegree
            << " tree, link error rate " << base.link_error_rate << "\n\n";

  // 1. Best-effort dispatching only: events lost on a hop are gone.
  ScenarioConfig no_recovery = base;
  no_recovery.algorithm = Algorithm::NoRecovery;
  const ScenarioResult baseline = run_scenario(no_recovery);

  // 2. Same network, same seed, with combined-pull epidemic recovery:
  //    sequence gaps reveal losses; negative digests travel towards other
  //    subscribers or back towards the publisher; events come back over an
  //    out-of-band channel.
  ScenarioConfig recovered = base;
  recovered.algorithm = Algorithm::CombinedPull;
  const ScenarioResult combined = run_scenario(recovered);

  print_summary(std::cout, "--- no recovery ---", baseline);
  std::cout << '\n';
  print_summary(std::cout, "--- combined pull ---", combined);

  std::cout << "\nRecovery lifted delivery from "
            << 100.0 * baseline.delivery_rate << "% to "
            << 100.0 * combined.delivery_rate << "% at a gossip/event traffic "
            << "ratio of " << combined.gossip_event_ratio << ".\n";
  return 0;
}
