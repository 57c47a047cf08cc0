#include "epicast/scenario/report.hpp"

#include <cmath>
#include <map>
#include <optional>
#include <ostream>

#include "epicast/common/assert.hpp"
#include "epicast/metrics/time_series.hpp"
#include "epicast/scenario/sweep.hpp"

namespace epicast {

std::vector<LabeledResult> run_sweep(std::vector<LabeledConfig> configs,
                                     unsigned max_parallel, bool verbose) {
  SweepRunner runner(SweepOptions{max_parallel, verbose});
  return runner.run(std::move(configs));
}

void print_summary(std::ostream& os, const std::string& label,
                   const ScenarioResult& r) {
  os << label << "\n"
     << "  delivery rate (within horizon): " << 100.0 * r.delivery_rate
     << "%\n"
     << "  eventual delivery rate:         "
     << 100.0 * r.eventual_delivery_rate << "%\n"
     << "  events published / tracked:     " << r.events_published << " / "
     << r.events_tracked << "\n"
     << "  expected pairs:                 " << r.expected_pairs << "\n"
     << "  delivered pairs:                " << r.delivered_pairs << " ("
     << r.recovered_pairs << " via recovery)\n"
     << "  receivers per event:            " << r.receivers_per_event << "\n"
     << "  mean recovery latency:          " << r.mean_recovery_latency_s
     << " s (p50 " << r.recovery_latency_p50_s << ", p90 "
     << r.recovery_latency_p90_s << ", p99 " << r.recovery_latency_p99_s
     << ")\n"
     << "  gossip msgs per dispatcher:     " << r.gossip_msgs_per_dispatcher
     << "\n"
     << "  gossip/event traffic ratio:     " << r.gossip_event_ratio << "\n"
     << "  mean pairwise distance (tree):  " << r.mean_pairwise_distance
     << " hops\n";
  if (r.reconfig_breaks > 0) {
    os << "  reconfigurations:               " << r.reconfig_breaks
       << " breaks, " << r.reconfig_repairs << " repairs ("
       << r.reconfig_deferred << " deferred), " << r.drops_no_link
       << " stale-route drops\n";
  }
  const fault::FaultStats& fs = r.fault.stats;
  if (fs.crashes + fs.burst_drops + fs.partitions_applied + fs.slow_windows >
      0) {
    os << "  faults:                         " << fs.crashes << " crashes ("
       << fs.cold_restarts << " cold), " << fs.crash_drops << " crash drops, "
       << fs.burst_drops << " burst drops, " << fs.partitions_applied
       << " partition links\n";
    for (const fault::FaultEpoch& e : r.fault.epochs) {
      os << "    epoch " << e.label << " [" << e.start_s << "s, " << e.end_s
         << "s): delivery " << 100.0 * e.delivery_ratio() << "%, eventual "
         << 100.0 * e.eventual_ratio() << "%\n";
    }
    if (r.fault.last_heal_s > 0.0) {
      os << "    last heal at " << r.fault.last_heal_s
         << "s, post-heal convergence " << r.fault.post_heal_convergence_s
         << "s\n";
    }
  }
  if (r.gossip_totals.request_timeouts + r.gossip_totals.request_retries +
          r.gossip_totals.requests_abandoned >
      0) {
    os << "  pull retry hardening:           "
       << r.gossip_totals.request_timeouts << " timeouts, "
       << r.gossip_totals.request_retries << " retries, "
       << r.gossip_totals.requests_abandoned << " abandoned\n";
  }
  os << "  simulated events executed:      " << r.sim_events_executed << " ("
     << r.wall_seconds << "s wall)\n";
}

ReplicatedResult run_replicated(ScenarioConfig base, unsigned replicas,
                                unsigned max_parallel) {
  EPICAST_ASSERT(replicas >= 1);
  std::vector<LabeledConfig> configs;
  configs.reserve(replicas);
  for (unsigned i = 0; i < replicas; ++i) {
    ScenarioConfig cfg = base;
    cfg.seed = base.seed + i;
    configs.push_back({"seed=" + std::to_string(cfg.seed), cfg});
  }
  auto labeled = run_sweep(std::move(configs), max_parallel, false);

  ReplicatedResult out;
  out.runs.reserve(replicas);
  for (auto& lr : labeled) out.runs.push_back(std::move(lr.result));

  double sum = 0.0;
  for (const ScenarioResult& r : out.runs) {
    sum += r.delivery_rate;
    out.min_delivery = std::min(out.min_delivery, r.delivery_rate);
    out.max_delivery = std::max(out.max_delivery, r.delivery_rate);
    out.mean_gossip_per_dispatcher += r.gossip_msgs_per_dispatcher;
    out.mean_gossip_event_ratio += r.gossip_event_ratio;
  }
  const double n = static_cast<double>(replicas);
  out.mean_delivery = sum / n;
  out.mean_gossip_per_dispatcher /= n;
  out.mean_gossip_event_ratio /= n;
  double var = 0.0;
  for (const ScenarioResult& r : out.runs) {
    const double d = r.delivery_rate - out.mean_delivery;
    var += d * d;
  }
  out.stddev_delivery = std::sqrt(var / n);
  return out;
}

void write_series_csv(std::ostream& os, const std::string& x_label,
                      const std::vector<TimeSeries>& series) {
  os << x_label;
  for (const TimeSeries& s : series) os << ',' << s.name();
  os << '\n';

  std::map<double, std::vector<std::optional<double>>> rows;
  for (std::size_t i = 0; i < series.size(); ++i) {
    for (const SeriesPoint& p : series[i].points()) {
      auto& row = rows[p.x];
      row.resize(series.size());
      row[i] = p.y;
    }
  }
  os.precision(10);
  for (const auto& [x, row] : rows) {
    os << x;
    for (std::size_t i = 0; i < series.size(); ++i) {
      os << ',';
      if (i < row.size() && row[i]) os << *row[i];
    }
    os << '\n';
  }
}

std::string sweep_table(
    const std::string& x_label, const std::vector<std::string>& series_names,
    const std::vector<double>& xs, const std::vector<LabeledResult>& results,
    const std::function<double(const ScenarioResult&)>& extract) {
  EPICAST_ASSERT_MSG(results.size() == xs.size() * series_names.size(),
                     "sweep_table expects row-major x × series results");
  std::vector<TimeSeries> series;
  series.reserve(series_names.size());
  for (const std::string& name : series_names) {
    series.emplace_back(name);
  }
  std::size_t idx = 0;
  for (double x : xs) {
    for (std::size_t s = 0; s < series_names.size(); ++s) {
      series[s].add(x, extract(results[idx++].result));
    }
  }
  return render_series_table(x_label, series);
}

}  // namespace epicast
