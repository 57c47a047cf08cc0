// epicast — command-line configuration of scenarios.
//
// Backs the `epicast_sim` tool (examples/epicast_sim.cpp): a small,
// dependency-free flag parser mapping --key=value pairs onto
// ScenarioConfig. Kept in the library so it is unit-testable and reusable
// by downstream tools.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "epicast/scenario/config.hpp"

namespace epicast {

struct CliParse {
  ScenarioConfig config;
  bool show_help = false;
  bool emit_csv = false;     ///< --csv: print the delivery series as CSV
  bool emit_json = false;    ///< --json: print the machine-readable result
  /// Set iff parsing failed; describes the offending flag.
  std::optional<std::string> error;
};

/// Parses `args` (argv[1..]) onto paper defaults. Recognized flags:
///   --algorithm=<no-recovery|none|push|subscriber-pull|publisher-pull|
///                combined-pull|random-pull> (runtime::parse_algorithm_name)
///   --nodes=N --epsilon=E --rate=R --seed=S
///   --beta=B --interval=T --pforward=P --psource=P --max-hops=H
///   --pi-max=K --patterns-per-event=K --universe=K
///   --measure=SECONDS --warmup=SECONDS --horizon=SECONDS
///   --reconfig=RHO_SECONDS (enables churn; links become reliable unless
///                           --epsilon is also given)
///   --overlay=<tree|barabasi-albert|watts-strogatz|random-regular|
///              geo-cluster> --overlay-degree=D --ws-rewire=P
///   --zipf=S --sub-skew=S --publishers=K --bootstrap=<flood|oracle>
///   --faults=PLAN (fault-plan grammar, see epicast/fault/plan.hpp)
///   --pull-timeout=SECONDS --pull-retries=N (request retry hardening)
///   --oob-loss=E --csv --json --help
[[nodiscard]] CliParse parse_cli(const std::vector<std::string>& args);

/// The --help text.
[[nodiscard]] std::string cli_usage();

}  // namespace epicast
