#include "epicast/runtime/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace epicast::runtime {
namespace {

[[noreturn]] void fail_line(std::size_t line_no, const std::string& why) {
  throw std::invalid_argument("cluster config line " +
                              std::to_string(line_no) + ": " + why);
}

std::uint64_t parse_u64(const std::string& tok, std::size_t line_no) {
  try {
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(tok, &pos);
    if (pos != tok.size()) throw std::invalid_argument(tok);
    return v;
  } catch (const std::exception&) {
    fail_line(line_no, "expected an unsigned integer, got '" + tok + "'");
  }
}

/// A finite number: NaN would pass every range check in validate(), since
/// each comparison with it is false, and no directive means infinity.
double parse_f64(const std::string& tok, std::size_t line_no) {
  double v = 0.0;
  try {
    std::size_t pos = 0;
    v = std::stod(tok, &pos);
    if (pos != tok.size()) throw std::invalid_argument(tok);
  } catch (const std::exception&) {
    fail_line(line_no, "expected a number, got '" + tok + "'");
  }
  if (!std::isfinite(v)) {
    fail_line(line_no, "expected a finite number, got '" + tok + "'");
  }
  return v;
}

/// A duration given in (possibly fractional) milliseconds, kept to the
/// nanosecond: `30.7` is 30.7 ms, not 30.
Duration parse_millis(const std::string& tok, std::size_t line_no) {
  const double ms = parse_f64(tok, line_no);
  // Past about 292 years the nanosecond count overflows.
  if (std::abs(ms) > 9e12) fail_line(line_no, "duration out of range");
  return Duration::seconds(ms / 1e3);
}

}  // namespace

Algorithm parse_algorithm_name(const std::string& name) {
  if (name == "no-recovery" || name == "none") return Algorithm::NoRecovery;
  if (name == "push") return Algorithm::Push;
  if (name == "subscriber-pull") return Algorithm::SubscriberPull;
  if (name == "publisher-pull") return Algorithm::PublisherPull;
  if (name == "combined-pull") return Algorithm::CombinedPull;
  if (name == "random-pull") return Algorithm::RandomPull;
  throw std::invalid_argument("unknown algorithm '" + name +
                              "' (expected no-recovery, push, "
                              "subscriber-pull, publisher-pull, "
                              "combined-pull or random-pull)");
}

void ClusterConfig::validate() const {
  if (endpoints.empty()) {
    throw std::invalid_argument("cluster config declares no nodes");
  }
  const std::uint32_t n = node_count();
  for (std::uint32_t i = 0; i < n; ++i) {
    if (endpoints[i].host.empty()) {
      throw std::invalid_argument("node " + std::to_string(i) +
                                  " missing (ids must be dense [0, N))");
    }
  }
  auto check_node = [n](NodeId id, const char* what) {
    if (!id.valid() || id.value() >= n) {
      throw std::invalid_argument(std::string(what) + " references node " +
                                  std::to_string(id.value()) +
                                  " outside [0, " + std::to_string(n) + ")");
    }
  };
  for (const auto& [a, b] : links) {
    check_node(a, "link");
    check_node(b, "link");
    if (a == b) throw std::invalid_argument("link to self");
  }
  for (const auto& [node, p] : subscriptions) {
    check_node(node, "sub");
    if (p.value() >= pattern_universe) {
      throw std::invalid_argument(
          "sub pattern " + std::to_string(p.value()) +
          " outside universe [0, " + std::to_string(pattern_universe) + ")");
    }
  }
  for (NodeId p : publishers) check_node(p, "publisher");
  if (pattern_universe == 0) {
    throw std::invalid_argument("pattern-universe must be > 0");
  }
  if (patterns_per_event == 0 || patterns_per_event > pattern_universe) {
    throw std::invalid_argument(
        "patterns-per-event must be in [1, pattern-universe]");
  }
  if (publish_rate_hz < 0.0) {
    throw std::invalid_argument("rate must be >= 0");
  }
  if (drop_rate < 0.0 || drop_rate >= 1.0) {
    throw std::invalid_argument("drop-rate must be in [0, 1)");
  }
  if (run_seconds <= 0.0 || settle_seconds < 0.0 || drain_seconds < 0.0) {
    throw std::invalid_argument(
        "settle/run/drain must be non-negative (run > 0)");
  }
  if (sizing != SizingMode::Wire) {
    // Real sockets carry real codec frames, so the only honest accounting
    // is the frame's byte count. Nominal sizing would silently misreport
    // link occupancy and overhead figures.
    throw std::invalid_argument(
        "AsyncRuntime requires SizingMode::Wire: real UDP transport carries "
        "codec frames whose on-the-wire size is the frame size; nominal "
        "sizing (requested: " +
        std::string(to_string(sizing)) +
        ") would misaccount link occupancy. Set sizing=wire in the cluster "
        "config.");
  }
  if (queue_capacity == 0) {
    throw std::invalid_argument("queue-capacity must be > 0");
  }
  if (gossip.buffer_size == 0) {
    throw std::invalid_argument("beta must be > 0");
  }
  if (gossip.interval <= Duration::zero()) {
    throw std::invalid_argument("gossip-interval-ms must be > 0");
  }
  if (gossip.request_timeout < Duration::zero()) {
    throw std::invalid_argument("request-timeout-ms must be >= 0 (0 = off)");
  }
  if (gossip.forward_probability < 0.0 || gossip.forward_probability > 1.0 ||
      gossip.source_probability < 0.0 || gossip.source_probability > 1.0) {
    throw std::invalid_argument("pforward/psource must be in [0, 1]");
  }
  if (heartbeat_interval_ms < 0.0) {
    throw std::invalid_argument("heartbeat-interval-ms must be >= 0");
  }
  if (!faults.churns.empty()) {
    throw std::invalid_argument(
        "cluster fault plans cannot contain churn(...): daemon processes "
        "really die — use the cluster harness --chaos schedule instead");
  }
  faults.validate();
}

ClusterConfig parse_cluster_config(const std::string& text) {
  ClusterConfig cfg;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;  // blank / comment-only line

    std::vector<std::string> toks;
    for (std::string t; ls >> t;) toks.push_back(std::move(t));
    auto want = [&](std::size_t n) {
      if (toks.size() != n) {
        fail_line(line_no, "'" + key + "' takes " + std::to_string(n) +
                               " argument(s), got " +
                               std::to_string(toks.size()));
      }
    };

    if (key == "node") {
      want(3);
      const auto id = parse_u64(toks[0], line_no);
      const auto port = parse_u64(toks[2], line_no);
      if (port > 65535) fail_line(line_no, "port out of range");
      // Grow with an empty-host sentinel so validate() catches sparse ids
      // (PeerEndpoint's default host would otherwise look declared).
      if (cfg.endpoints.size() <= id) {
        cfg.endpoints.resize(id + 1, PeerEndpoint{"", 0});
      }
      cfg.endpoints[id] =
          PeerEndpoint{toks[1], static_cast<std::uint16_t>(port)};
    } else if (key == "link") {
      want(2);
      cfg.links.emplace_back(
          NodeId{static_cast<std::uint32_t>(parse_u64(toks[0], line_no))},
          NodeId{static_cast<std::uint32_t>(parse_u64(toks[1], line_no))});
    } else if (key == "sub") {
      want(2);
      cfg.subscriptions.emplace_back(
          NodeId{static_cast<std::uint32_t>(parse_u64(toks[0], line_no))},
          Pattern{static_cast<std::uint32_t>(parse_u64(toks[1], line_no))});
    } else if (key == "algorithm") {
      want(1);
      try {
        cfg.algorithm = parse_algorithm_name(toks[0]);
      } catch (const std::invalid_argument& e) {
        fail_line(line_no, e.what());
      }
    } else if (key == "gossip-interval-ms") {
      want(1);
      cfg.gossip.interval = parse_millis(toks[0], line_no);
    } else if (key == "beta") {
      want(1);
      cfg.gossip.buffer_size = parse_u64(toks[0], line_no);
    } else if (key == "pforward") {
      want(1);
      cfg.gossip.forward_probability = parse_f64(toks[0], line_no);
    } else if (key == "psource") {
      want(1);
      cfg.gossip.source_probability = parse_f64(toks[0], line_no);
    } else if (key == "request-timeout-ms") {
      want(1);
      cfg.gossip.request_timeout = parse_millis(toks[0], line_no);
      cfg.request_timeout_set = true;
    } else if (key == "heartbeat-interval-ms") {
      want(1);
      cfg.heartbeat_interval_ms = parse_f64(toks[0], line_no);
    } else if (key == "epoch-ns") {
      want(1);
      try {
        cfg.clock_epoch_ns = std::stoll(toks[0]);
      } catch (const std::exception&) {
        fail_line(line_no, "expected an integer, got '" + toks[0] + "'");
      }
    } else if (key == "faults") {
      // The spec may contain no spaces (the plan grammar is ';'-separated)
      // but tolerate accidental splits by re-joining the tokens.
      if (toks.empty()) fail_line(line_no, "'faults' takes a plan spec");
      std::string spec;
      for (const std::string& t : toks) spec += t;
      std::string error;
      const auto plan = fault::parse_plan(spec, &error);
      if (!plan) fail_line(line_no, "bad fault plan: " + error);
      cfg.faults = *plan;
    } else if (key == "pattern-universe") {
      want(1);
      cfg.pattern_universe =
          static_cast<std::uint32_t>(parse_u64(toks[0], line_no));
    } else if (key == "patterns-per-event") {
      want(1);
      cfg.patterns_per_event =
          static_cast<std::uint32_t>(parse_u64(toks[0], line_no));
    } else if (key == "payload-bytes") {
      want(1);
      cfg.event_payload_bytes = parse_u64(toks[0], line_no);
    } else if (key == "rate") {
      want(1);
      cfg.publish_rate_hz = parse_f64(toks[0], line_no);
    } else if (key == "publisher") {
      want(1);
      cfg.publishers.push_back(
          NodeId{static_cast<std::uint32_t>(parse_u64(toks[0], line_no))});
    } else if (key == "settle") {
      want(1);
      cfg.settle_seconds = parse_f64(toks[0], line_no);
    } else if (key == "run") {
      want(1);
      cfg.run_seconds = parse_f64(toks[0], line_no);
    } else if (key == "drain") {
      want(1);
      cfg.drain_seconds = parse_f64(toks[0], line_no);
    } else if (key == "drop-rate") {
      want(1);
      cfg.drop_rate = parse_f64(toks[0], line_no);
    } else if (key == "seed") {
      want(1);
      cfg.seed = parse_u64(toks[0], line_no);
    } else if (key == "sizing") {
      want(1);
      if (toks[0] == "wire") {
        cfg.sizing = SizingMode::Wire;
      } else if (toks[0] == "nominal") {
        cfg.sizing = SizingMode::Nominal;
      } else {
        fail_line(line_no, "sizing must be 'wire' or 'nominal'");
      }
    } else if (key == "queue-capacity") {
      want(1);
      cfg.queue_capacity = parse_u64(toks[0], line_no);
    } else if (key == "oracles") {
      want(1);
      if (toks[0] == "on") {
        cfg.oracles = true;
      } else if (toks[0] == "off") {
        cfg.oracles = false;
      } else {
        fail_line(line_no, "oracles must be 'on' or 'off'");
      }
    } else {
      fail_line(line_no, "unknown directive '" + key + "'");
    }
  }
  cfg.validate();
  return cfg;
}

ClusterConfig load_cluster_config(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read cluster config: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_cluster_config(buf.str());
}

}  // namespace epicast::runtime
