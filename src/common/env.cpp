#include "epicast/common/env.hpp"

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace epicast::env {
namespace {

[[noreturn]] void reject(const char* name, const char* value,
                         const std::string& expected) {
  std::fprintf(stderr, "%s: unknown value '%s' (expected %s)\n", name, value,
               expected.c_str());
  std::abort();
}

/// The value of `name`, or nullptr when unset or empty.
const char* value_of(const Lookup& lookup, const char* name) {
  const char* v = lookup(name);
  return v != nullptr && *v != '\0' ? v : nullptr;
}

#if defined(EPICAST_ASAN)
// Freed blocks must stay poisoned for ASan to see a use after free.
constexpr bool kPoolByDefault = false;
#else
constexpr bool kPoolByDefault = true;
#endif

}  // namespace

const char* process_env(const char* name) { return std::getenv(name); }

bool read_switch(const Lookup& lookup, const char* name, bool fallback) {
  const char* value = value_of(lookup, name);
  if (value == nullptr) return fallback;
  const std::string_view v = value;
  if (v == "1" || v == "on" || v == "ON" || v == "true") return true;
  if (v == "0" || v == "off" || v == "OFF" || v == "false") return false;
  reject(name, value, "1, on, ON, true, 0, off, OFF or false");
}

unsigned long read_count(const Lookup& lookup, const char* name,
                         unsigned long min, unsigned long max,
                         unsigned long fallback) {
  const char* value = value_of(lookup, name);
  if (value == nullptr) return fallback;
  unsigned long n = 0;
  const char* p = value;
  // Stop once past max, so a long digit string cannot overflow.
  for (; *p >= '0' && *p <= '9' && n <= max; ++p) n = n * 10 + (*p - '0');
  if (*p != '\0' || n < min || n > max) {
    reject(name, value,
           "a count from " + std::to_string(min) + " to " +
               std::to_string(max) + ", or unset");
  }
  return n;
}

Settings parse(const Lookup& lookup) {
  Settings s;
  if (const char* v = value_of(lookup, "EPICAST_SIZING")) {
    if (std::string_view(v) != "wire") {
      reject("EPICAST_SIZING", v, "wire, or unset for nominal");
    }
    s.sizing = SizingMode::Wire;
  }
  s.pool = read_switch(lookup, "EPICAST_POOL", kPoolByDefault)
               ? MessagePool::Mode::Pooling
               : MessagePool::Mode::PassThrough;
  s.oracles = read_switch(lookup, "EPICAST_ORACLES", true);
  s.profile = read_switch(lookup, "EPICAST_PROFILE", false);
  s.jobs =
      static_cast<unsigned>(read_count(lookup, "EPICAST_JOBS", 1, 4095, 0));
  if (const char* v = value_of(lookup, "EPICAST_FAULTS")) {
    std::string error;
    std::optional<fault::FaultPlan> plan = fault::parse_plan(v, &error);
    if (!plan.has_value()) {
      reject("EPICAST_FAULTS", v, "a fault plan: " + error);
    }
    plan->validate();
    s.faults = std::move(*plan);
  }
  return s;
}

const Settings& settings() {
  static const Settings s = parse(process_env);
  return s;
}

}  // namespace epicast::env
