#include "epicast/scenario/cli.hpp"

#include <cstdlib>
#include <stdexcept>

#include "epicast/fault/plan.hpp"
#include "epicast/runtime/cluster.hpp"

namespace epicast {
namespace {

bool parse_double(const std::string& value, double& out) {
  char* end = nullptr;
  out = std::strtod(value.c_str(), &end);
  return end != nullptr && *end == '\0' && !value.empty();
}

bool parse_u64(const std::string& value, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(value.c_str(), &end, 10);
  return end != nullptr && *end == '\0' && !value.empty();
}

}  // namespace

CliParse parse_cli(const std::vector<std::string>& args) {
  CliParse out;
  out.config = ScenarioConfig::paper_defaults(Algorithm::CombinedPull);
  bool reconfig_given = false;
  bool epsilon_given = false;

  for (const std::string& arg : args) {
    if (arg == "--help" || arg == "-h") {
      out.show_help = true;
      continue;
    }
    if (arg == "--csv") {
      out.emit_csv = true;
      continue;
    }
    if (arg == "--json") {
      out.emit_json = true;
      continue;
    }
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      out.error = "unrecognized argument: " + arg;
      return out;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);

    double d = 0.0;
    std::uint64_t u = 0;
    ScenarioConfig& cfg = out.config;
    if (key == "algorithm") {
      try {
        cfg.algorithm = runtime::parse_algorithm_name(value);
      } catch (const std::invalid_argument&) {
        out.error = "unknown algorithm: " + value;
        return out;
      }
    } else if (key == "nodes" && parse_u64(value, u) && u >= 2) {
      cfg.nodes = static_cast<std::uint32_t>(u);
    } else if (key == "epsilon" && parse_double(value, d) && d >= 0 &&
               d <= 1) {
      cfg.link_error_rate = d;
      epsilon_given = true;
    } else if (key == "rate" && parse_double(value, d) && d > 0) {
      cfg.publish_rate_hz = d;
    } else if (key == "seed" && parse_u64(value, u)) {
      cfg.seed = u;
    } else if (key == "beta" && parse_u64(value, u) && u > 0) {
      cfg.gossip.buffer_size = u;
    } else if (key == "interval" && parse_double(value, d) && d > 0) {
      cfg.gossip.interval = Duration::seconds(d);
    } else if (key == "pforward" && parse_double(value, d) && d >= 0 &&
               d <= 1) {
      cfg.gossip.forward_probability = d;
    } else if (key == "psource" && parse_double(value, d) && d >= 0 &&
               d <= 1) {
      cfg.gossip.source_probability = d;
    } else if (key == "pi-max" && parse_u64(value, u) && u >= 1) {
      cfg.patterns_per_subscriber = static_cast<std::uint32_t>(u);
    } else if (key == "patterns-per-event" && parse_u64(value, u) && u >= 1) {
      cfg.patterns_per_event = static_cast<std::uint32_t>(u);
    } else if (key == "universe" && parse_u64(value, u) && u >= 1) {
      cfg.pattern_universe = static_cast<std::uint32_t>(u);
    } else if (key == "measure" && parse_double(value, d) && d > 0) {
      cfg.measure = Duration::seconds(d);
    } else if (key == "warmup" && parse_double(value, d) && d >= 0) {
      cfg.warmup = Duration::seconds(d);
    } else if (key == "horizon" && parse_double(value, d) && d > 0) {
      cfg.recovery_horizon = Duration::seconds(d);
    } else if (key == "reconfig" && parse_double(value, d) && d > 0) {
      cfg.reconfiguration_interval = Duration::seconds(d);
      reconfig_given = true;
    } else if (key == "route-repair") {
      if (value == "oracle") {
        cfg.route_repair = ScenarioConfig::RouteRepair::Oracle;
      } else if (value == "protocol") {
        cfg.route_repair = ScenarioConfig::RouteRepair::Protocol;
      } else {
        out.error = "route-repair must be 'oracle' or 'protocol'";
        return out;
      }
    } else if (key == "overlay") {
      const auto kind = overlay_from_string(value);
      if (!kind) {
        out.error = "unknown overlay: " + value;
        return out;
      }
      cfg.overlay = *kind;
    } else if (key == "overlay-degree" && parse_u64(value, u) && u >= 1) {
      cfg.overlay_degree = static_cast<std::uint32_t>(u);
    } else if (key == "ws-rewire" && parse_double(value, d) && d >= 0 &&
               d <= 1) {
      cfg.ws_rewire = d;
    } else if (key == "zipf" && parse_double(value, d) && d >= 0) {
      cfg.zipf_exponent = d;
    } else if (key == "publishers" && parse_u64(value, u)) {
      cfg.publisher_count = static_cast<std::uint32_t>(u);
    } else if (key == "sub-skew" && parse_double(value, d) && d >= 0) {
      cfg.subscription_skew = d;
    } else if (key == "bootstrap") {
      if (value == "flood") {
        cfg.bootstrap = ScenarioConfig::SubscriptionBootstrap::Flood;
      } else if (value == "oracle") {
        cfg.bootstrap = ScenarioConfig::SubscriptionBootstrap::Oracle;
      } else {
        out.error = "bootstrap must be 'flood' or 'oracle'";
        return out;
      }
    } else if (key == "oob-loss" && parse_double(value, d) && d >= 0 &&
               d <= 1) {
      cfg.oob_loss_rate = d;
    } else if (key == "faults") {
      std::string err;
      const auto plan = fault::parse_plan(value, &err);
      if (!plan) {
        out.error = "bad fault plan: " + err;
        return out;
      }
      cfg.faults = *plan;
    } else if (key == "pull-timeout" && parse_double(value, d) && d >= 0) {
      cfg.gossip.request_timeout = Duration::seconds(d);
    } else if (key == "pull-retries" && parse_u64(value, u)) {
      cfg.gossip.request_max_retries = static_cast<std::uint32_t>(u);
    } else {
      out.error = "bad flag or value: " + arg;
      return out;
    }
  }

  // The paper's churn scenario uses reliable links unless stated otherwise.
  if (reconfig_given && !epsilon_given) {
    out.config.link_error_rate = 0.0;
  }
  return out;
}

std::string cli_usage() {
  return
      "epicast_sim — run one epicast scenario and print its results\n"
      "\n"
      "usage: epicast_sim [--flag=value ...]\n"
      "\n"
      "  --algorithm=A   no-recovery (or none) | push | subscriber-pull |\n"
      "                  publisher-pull | combined-pull (default) |\n"
      "                  random-pull\n"
      "  --nodes=N       dispatchers (default 100)\n"
      "  --epsilon=E     link error rate (default 0.1)\n"
      "  --rate=R        publishes per second per dispatcher (default 50)\n"
      "  --beta=B        retransmission buffer size (default 1500)\n"
      "  --interval=T    gossip interval in seconds (default 0.03)\n"
      "  --pforward=P    digest fan-out probability (default 0.5)\n"
      "  --psource=P     combined-pull publisher-round probability (0.5)\n"
      "  --pi-max=K      patterns per subscriber (default 2)\n"
      "  --patterns-per-event=K  (default 3)\n"
      "  --universe=K    pattern universe size (default 70)\n"
      "  --measure=S     measurement window seconds (default 10)\n"
      "  --warmup=S      warmup seconds (default 1.5)\n"
      "  --horizon=S     recovery horizon seconds (default 3)\n"
      "  --reconfig=RHO  enable churn: break a link every RHO seconds\n"
      "                  (links become reliable unless --epsilon given)\n"
      "  --route-repair=oracle|protocol  route restoration after churn:\n"
      "                  instant converged tables (default) or the\n"
      "                  distributed retraction/re-advertisement protocol\n"
      "  --overlay=K     tree (default) | barabasi-albert | watts-strogatz\n"
      "                  | random-regular | geo-cluster (scale overlays)\n"
      "  --overlay-degree=D  target degree of non-tree overlays (default 4)\n"
      "  --ws-rewire=P   Watts-Strogatz rewiring probability (default 0.1)\n"
      "  --zipf=S        Zipf exponent of pattern popularity (default 0 =\n"
      "                  uniform, the paper's draws)\n"
      "  --publishers=K  restrict publishing to K evenly-spaced dispatchers\n"
      "                  (default 0 = every dispatcher publishes)\n"
      "  --sub-skew=S    power-law skew of per-node subscription counts\n"
      "                  (default 0 = exactly pi_max each)\n"
      "  --bootstrap=M   flood (default): simulate subscription floods\n"
      "                  (tree overlays only); oracle: install converged\n"
      "                  routes directly (required on cyclic overlays)\n"
      "  --oob-loss=E    out-of-band channel loss (default: epsilon)\n"
      "  --faults=PLAN   chaos plan, ';'-separated processes, e.g.\n"
      "                  'churn(period=1,down=0.3);burst(p=0.05,r=0.5)'\n"
      "                  (also: EPICAST_FAULTS; times relative to publish\n"
      "                  start; see include/epicast/fault/plan.hpp)\n"
      "  --pull-timeout=S  request timeout enabling retry hardening\n"
      "                  (default 0 = off, the paper's behaviour)\n"
      "  --pull-retries=N  retries before a request is abandoned (3)\n"
      "  --seed=S        RNG seed (default 1)\n"
      "  --csv           also print the delivery time series as CSV\n"
      "  --json          print the machine-readable result instead\n"
      "  --help          this text\n";
}

}  // namespace epicast
