// epicast_sim — the command-line front door: run any single scenario with
// paper defaults overridden by flags, print a human summary, optionally a
// CSV delivery series.
//
//   epicast_sim --algorithm=push --epsilon=0.05 --measure=5
//   epicast_sim --algorithm=combined-pull --reconfig=0.2 --csv
#include <iostream>
#include <sstream>

#include "epicast/epicast.hpp"
#include "epicast/metrics/result_json.hpp"
#include "epicast/scenario/cli.hpp"

int main(int argc, char** argv) {
  using namespace epicast;

  std::vector<std::string> args(argv + 1, argv + argc);
  const CliParse cli = parse_cli(args);
  if (cli.show_help) {
    std::cout << cli_usage();
    return 0;
  }
  if (cli.error) {
    std::cerr << "epicast_sim: " << *cli.error << "\n\n" << cli_usage();
    return 2;
  }

  if (cli.emit_json) {
    // Machine-readable mode: the JSON object is the whole output (CI's
    // determinism smoke diffs two of these byte-for-byte).
    const ScenarioResult result = run_scenario(cli.config);
    std::cout << metrics::result_json(result);
    return 0;
  }

  std::cout << "--- configuration ---\n"
            << cli.config.describe() << "\n--- running ---\n";
  const ScenarioResult result = run_scenario(cli.config);
  print_summary(std::cout, "--- results ---", result);

  if (cli.emit_csv) {
    std::cout << "\n--- delivery series (CSV) ---\n";
    std::ostringstream os;
    write_series_csv(os, "publish_time_s", {result.delivery_series});
    std::cout << os.str();
  }
  return 0;
}
