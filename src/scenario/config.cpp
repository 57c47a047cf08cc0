#include "epicast/scenario/config.hpp"

#include <sstream>

#include "epicast/common/assert.hpp"
#include "epicast/net/link_model.hpp"
#include "epicast/net/reconfigurator.hpp"

namespace epicast {

void ScenarioConfig::validate() const {
  EPICAST_ASSERT(nodes >= 2);
  EPICAST_ASSERT(pattern_universe >= 1);
  EPICAST_ASSERT_MSG(patterns_per_subscriber >= 1 &&
                         patterns_per_subscriber <= pattern_universe,
                     "πmax must be within the pattern universe");
  EPICAST_ASSERT_MSG(patterns_per_event >= 1 &&
                         patterns_per_event <= pattern_universe,
                     "patterns per event must be within the universe");
  EPICAST_ASSERT(publish_rate_hz > 0.0);
  EPICAST_ASSERT(overlay_degree >= 1);
  EPICAST_ASSERT(ws_rewire >= 0.0 && ws_rewire <= 1.0);
  EPICAST_ASSERT(zipf_exponent >= 0.0);
  EPICAST_ASSERT(subscription_skew >= 0.0);
  EPICAST_ASSERT_MSG(publisher_count <= nodes,
                     "publisher_count must not exceed the node count");
  EPICAST_ASSERT(link_error_rate >= 0.0 && link_error_rate <= 1.0);
  EPICAST_ASSERT(effective_oob_loss() >= 0.0 && effective_oob_loss() <= 1.0);
  if (reconfiguration_interval) {
    EPICAST_ASSERT(*reconfiguration_interval > Duration::zero());
  }
  EPICAST_ASSERT(warmup >= Duration::zero());
  EPICAST_ASSERT(measure > Duration::zero());
  EPICAST_ASSERT(recovery_horizon > Duration::zero());
  EPICAST_ASSERT(bucket_width > Duration::zero());
  EPICAST_ASSERT(gossip.interval > Duration::zero());
  EPICAST_ASSERT(gossip.buffer_size > 0);
  EPICAST_ASSERT(gossip.request_timeout >= Duration::zero());
  EPICAST_ASSERT_MSG(shards == 1,
                     "ScenarioConfig::shards must be 1 (the sharded engine "
                     "was removed)");
  EPICAST_ASSERT_MSG(threads == 1,
                     "ScenarioConfig::threads must be 1 (the sharded engine "
                     "was removed)");
  faults.validate();
}

ScenarioConfig ScenarioConfig::paper_defaults(Algorithm algorithm) {
  ScenarioConfig cfg;  // field initializers are the Fig. 2 values
  cfg.algorithm = algorithm;
  return cfg;
}

std::string ScenarioConfig::describe() const {
  std::ostringstream os;
  os << "N (dispatchers)                  " << nodes << '\n'
     << "max degree                       " << kTreeMaxDegree << '\n'
     << "overlay                          " << to_string(overlay) << '\n'
     << "Pi (pattern universe)            " << pattern_universe << '\n'
     << "pi_max (patterns/subscriber)     " << patterns_per_subscriber << '\n'
     << "patterns per event               " << patterns_per_event << '\n'
     << "publish rate [1/s/dispatcher]    " << publish_rate_hz << '\n'
     << "publishers                       "
     << (publisher_count == 0 ? std::string("all")
                              : std::to_string(publisher_count))
     << '\n'
     << "event payload [bytes]            " << event_payload_bytes << '\n'
     << "epsilon (link error rate)        " << link_error_rate << '\n'
     << "oob loss rate                    " << effective_oob_loss() << '\n';
  if (reconfiguration_interval) {
    os << "rho (reconfig interval)          "
       << to_string(*reconfiguration_interval) << '\n'
       << "repair time                      "
       << to_string(ReconfigConfig{}.repair_time) << '\n';
  } else {
    os << "rho (reconfig interval)          inf (no churn)\n";
  }
  os << "algorithm                        " << to_string(algorithm) << '\n'
     << "T (gossip interval)              " << to_string(gossip.interval)
     << '\n'
     << "beta (buffer size)               " << gossip.buffer_size << '\n'
     << "P_forward                        " << gossip.forward_probability
     << '\n'
     << "P_source                         " << gossip.source_probability
     << '\n'
     << "fault plan                       "
     << (faults.empty() ? std::string("none") : faults.describe()) << '\n'
     << "sizing mode                      " << to_string(sizing_mode) << '\n'
     << "link bandwidth [bit/s]           " << LinkParams{}.bandwidth_bps
     << '\n'
     << "measurement window [s]           " << measure.to_seconds() << '\n'
     << "recovery horizon [s]             " << recovery_horizon.to_seconds()
     << '\n'
     << "seed                             " << seed << '\n';
  return os.str();
}

}  // namespace epicast
