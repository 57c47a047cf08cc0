#include "epicast/fault/plan.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string_view>

#include "epicast/common/assert.hpp"

namespace epicast::fault {
namespace {

// ---- grammar helpers -------------------------------------------------------

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

bool parse_double(std::string_view text, double& out) {
  const std::string buf(text);
  char* end = nullptr;
  out = std::strtod(buf.c_str(), &end);
  return end != nullptr && *end == '\0' && end != buf.c_str();
}

bool parse_u32(std::string_view text, std::uint32_t& out) {
  const std::string buf(text);
  char* end = nullptr;
  const unsigned long long v = std::strtoull(buf.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || end == buf.c_str()) return false;
  if (v > 0xffffffffULL) return false;
  out = static_cast<std::uint32_t>(v);
  return true;
}

struct KeyValue {
  std::string_view key;
  std::string_view value;
};

/// "period=1,down=0.3" → key/value pairs. Returns false on malformed input.
bool split_args(std::string_view args, std::vector<KeyValue>& out,
                std::string* error) {
  out.clear();
  while (!args.empty()) {
    const std::size_t comma = args.find(',');
    std::string_view item = trim(args.substr(0, comma));
    args = comma == std::string_view::npos ? std::string_view{}
                                           : args.substr(comma + 1);
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 == item.size()) {
      if (error != nullptr) {
        *error = "expected key=value, got '" + std::string(item) + "'";
      }
      return false;
    }
    out.push_back(
        {trim(item.substr(0, eq)), trim(item.substr(eq + 1))});
  }
  return true;
}

bool fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

bool seconds_value(const KeyValue& kv, Duration& out, std::string* error) {
  double v = 0.0;
  if (!parse_double(kv.value, v) || v < 0.0) {
    return fail(error, "bad value for '" + std::string(kv.key) + "': '" +
                           std::string(kv.value) + "'");
  }
  out = Duration::seconds(v);
  return true;
}

bool double_value(const KeyValue& kv, double& out, std::string* error) {
  if (!parse_double(kv.value, out)) {
    return fail(error, "bad value for '" + std::string(kv.key) + "': '" +
                           std::string(kv.value) + "'");
  }
  return true;
}

bool unknown_key(std::string_view process, const KeyValue& kv,
                 std::string* error) {
  return fail(error, std::string(process) + ": unknown key '" +
                         std::string(kv.key) + "'");
}

bool parse_churn(std::string_view args, FaultPlan& plan, std::string* error) {
  ChurnSpec spec;
  std::vector<KeyValue> kvs;
  if (!split_args(args, kvs, error)) return false;
  for (const KeyValue& kv : kvs) {
    if (kv.key == "period") {
      if (!seconds_value(kv, spec.period, error)) return false;
    } else if (kv.key == "down") {
      if (!seconds_value(kv, spec.downtime, error)) return false;
    } else if (kv.key == "policy") {
      if (kv.value == "warm") {
        spec.policy = RestartPolicy::Warm;
      } else if (kv.value == "cold") {
        spec.policy = RestartPolicy::Cold;
      } else {
        return fail(error, "churn: policy must be warm|cold, got '" +
                               std::string(kv.value) + "'");
      }
    } else if (kv.key == "start") {
      if (!seconds_value(kv, spec.start, error)) return false;
    } else if (kv.key == "stop") {
      Duration stop = Duration::zero();
      if (!seconds_value(kv, stop, error)) return false;
      spec.stop = stop;
    } else {
      return unknown_key("churn", kv, error);
    }
  }
  plan.churns.push_back(spec);
  return true;
}

bool parse_burst(std::string_view args, FaultPlan& plan, std::string* error) {
  BurstSpec spec;
  std::vector<KeyValue> kvs;
  if (!split_args(args, kvs, error)) return false;
  for (const KeyValue& kv : kvs) {
    if (kv.key == "p") {
      if (!double_value(kv, spec.channel.p_enter, error)) return false;
    } else if (kv.key == "r") {
      if (!double_value(kv, spec.channel.p_exit, error)) return false;
    } else if (kv.key == "loss_good") {
      if (!double_value(kv, spec.channel.loss_good, error)) return false;
    } else if (kv.key == "loss_bad") {
      if (!double_value(kv, spec.channel.loss_bad, error)) return false;
    } else if (kv.key == "start") {
      if (!seconds_value(kv, spec.start, error)) return false;
    } else if (kv.key == "stop") {
      Duration stop = Duration::zero();
      if (!seconds_value(kv, stop, error)) return false;
      spec.stop = stop;
    } else {
      return unknown_key("burst", kv, error);
    }
  }
  if (!spec.channel.valid()) {
    return fail(error, "burst: invalid Gilbert-Elliott parameters");
  }
  plan.bursts.push_back(spec);
  return true;
}

bool parse_slow(std::string_view args, FaultPlan& plan, std::string* error) {
  SlowSpec spec;
  std::vector<KeyValue> kvs;
  if (!split_args(args, kvs, error)) return false;
  for (const KeyValue& kv : kvs) {
    if (kv.key == "factor") {
      if (!double_value(kv, spec.factor, error)) return false;
    } else if (kv.key == "start") {
      if (!seconds_value(kv, spec.start, error)) return false;
    } else if (kv.key == "stop") {
      Duration stop = Duration::zero();
      if (!seconds_value(kv, stop, error)) return false;
      spec.stop = stop;
    } else {
      return unknown_key("slow", kv, error);
    }
  }
  if (!(spec.factor > 0.0 && spec.factor <= 1.0)) {
    return fail(error, "slow: factor must be in (0, 1]");
  }
  plan.slows.push_back(spec);
  return true;
}

bool parse_partition(std::string_view args, FaultPlan& plan,
                     std::string* error) {
  PartitionSpec spec;
  std::vector<KeyValue> kvs;
  if (!split_args(args, kvs, error)) return false;
  for (const KeyValue& kv : kvs) {
    if (kv.key == "links") {
      if (!parse_u32(kv.value, spec.links) || spec.links == 0) {
        return fail(error, "partition: links must be a positive integer");
      }
    } else if (kv.key == "at") {
      if (!seconds_value(kv, spec.at, error)) return false;
    } else if (kv.key == "heal") {
      if (!seconds_value(kv, spec.heal, error)) return false;
    } else {
      return unknown_key("partition", kv, error);
    }
  }
  if (!(spec.heal > spec.at)) {
    return fail(error, "partition: heal must be after at");
  }
  plan.partitions.push_back(spec);
  return true;
}

// ---- describe helpers ------------------------------------------------------

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

void append_window(std::ostringstream& os, Duration start,
                   const std::optional<Duration>& stop) {
  if (!start.is_zero()) os << ",start=" << fmt(start.to_seconds());
  if (stop.has_value()) os << ",stop=" << fmt(stop->to_seconds());
}

}  // namespace

void FaultPlan::validate() const {
  for (const ChurnSpec& c : churns) {
    EPICAST_ASSERT_MSG(c.period > Duration::zero(),
                       "churn period must be positive");
    EPICAST_ASSERT_MSG(!c.downtime.is_negative(),
                       "churn downtime must be non-negative");
    EPICAST_ASSERT_MSG(!c.start.is_negative(), "churn start must be >= 0");
    EPICAST_ASSERT_MSG(!c.stop.has_value() || *c.stop > c.start,
                       "churn stop must be after start");
  }
  for (const BurstSpec& b : bursts) {
    EPICAST_ASSERT_MSG(b.channel.valid(),
                       "burst Gilbert-Elliott parameters invalid");
    EPICAST_ASSERT_MSG(!b.start.is_negative(), "burst start must be >= 0");
    EPICAST_ASSERT_MSG(!b.stop.has_value() || *b.stop > b.start,
                       "burst stop must be after start");
  }
  for (const SlowSpec& s : slows) {
    EPICAST_ASSERT_MSG(s.factor > 0.0 && s.factor <= 1.0,
                       "slow factor must be in (0, 1]");
    EPICAST_ASSERT_MSG(!s.start.is_negative(), "slow start must be >= 0");
    EPICAST_ASSERT_MSG(!s.stop.has_value() || *s.stop > s.start,
                       "slow stop must be after start");
  }
  for (const PartitionSpec& p : partitions) {
    EPICAST_ASSERT_MSG(p.links > 0, "partition must remove >= 1 link");
    EPICAST_ASSERT_MSG(!p.at.is_negative(), "partition at must be >= 0");
    EPICAST_ASSERT_MSG(p.heal > p.at, "partition heal must be after at");
  }
}

std::string FaultPlan::describe() const {
  std::ostringstream os;
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ';';
    first = false;
  };
  for (const ChurnSpec& c : churns) {
    sep();
    os << "churn(period=" << fmt(c.period.to_seconds())
       << ",down=" << fmt(c.downtime.to_seconds())
       << ",policy=" << to_string(c.policy);
    append_window(os, c.start, c.stop);
    os << ')';
  }
  for (const BurstSpec& b : bursts) {
    sep();
    os << "burst(p=" << fmt(b.channel.p_enter)
       << ",r=" << fmt(b.channel.p_exit);
    if (b.channel.loss_good != 0.0) {
      os << ",loss_good=" << fmt(b.channel.loss_good);
    }
    if (b.channel.loss_bad != 1.0) {
      os << ",loss_bad=" << fmt(b.channel.loss_bad);
    }
    append_window(os, b.start, b.stop);
    os << ')';
  }
  for (const SlowSpec& s : slows) {
    sep();
    os << "slow(factor=" << fmt(s.factor);
    append_window(os, s.start, s.stop);
    os << ')';
  }
  for (const PartitionSpec& p : partitions) {
    sep();
    os << "partition(links=" << p.links << ",at=" << fmt(p.at.to_seconds())
       << ",heal=" << fmt(p.heal.to_seconds()) << ')';
  }
  return os.str();
}

std::optional<FaultPlan> parse_plan(const std::string& spec,
                                    std::string* error) {
  FaultPlan plan;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const std::size_t semi = rest.find(';');
    std::string_view item = trim(rest.substr(0, semi));
    rest = semi == std::string_view::npos ? std::string_view{}
                                          : rest.substr(semi + 1);
    if (item.empty()) continue;
    const std::size_t open = item.find('(');
    if (open == std::string_view::npos || item.back() != ')') {
      if (error != nullptr) {
        *error = "expected name(key=value,...), got '" + std::string(item) +
                 "'";
      }
      return std::nullopt;
    }
    const std::string_view name = trim(item.substr(0, open));
    const std::string_view args =
        item.substr(open + 1, item.size() - open - 2);
    bool ok = false;
    if (name == "churn") {
      ok = parse_churn(args, plan, error);
    } else if (name == "burst") {
      ok = parse_burst(args, plan, error);
    } else if (name == "slow") {
      ok = parse_slow(args, plan, error);
    } else if (name == "partition") {
      ok = parse_partition(args, plan, error);
    } else {
      if (error != nullptr) {
        *error = "unknown fault process '" + std::string(name) + "'";
      }
      return std::nullopt;
    }
    if (!ok) return std::nullopt;
  }
  return plan;
}

}  // namespace epicast::fault
