// epicast — the one reader of the process environment.
//
// Every library setting an EPICAST_* variable can change is parsed here, in
// one pass, with one on/off spelling table and one error format:
//
//   EPICAST_SIZING   "wire" selects SizingMode::Wire; unset/empty = Nominal
//   EPICAST_POOL     switch: message pooling (default on, off under ASan)
//   EPICAST_ORACLES  switch: runtime conformance oracles (default on)
//   EPICAST_PROFILE  switch: hot-path phase timing (default off)
//   EPICAST_JOBS     sweep worker count 1–4095; unset/empty = auto
//   EPICAST_FAULTS   fault plan (fault/plan.hpp grammar); unset/empty = none
//
// A switch is on for 1, on, ON or true and off for 0, off, OFF or false;
// unset or empty keeps its default. Any other value aborts, printing
// "<NAME>: unknown value '<value>' (expected ...)", so a typo cannot
// silently run in the other mode.
//
// settings() parses the process environment once, on first use, and every
// later call returns that parse: configs built afterwards cost no lookups.
// parse() is the same parse over a supplied lookup, for tests. The bench
// and test binaries read their own variables through read_switch() and
// read_count(), so they share the spellings.
#pragma once

#include <functional>

#include "epicast/common/message_pool.hpp"
#include "epicast/fault/plan.hpp"
#include "epicast/net/message.hpp"

namespace epicast::env {

struct Settings {
  SizingMode sizing = SizingMode::Nominal;
  MessagePool::Mode pool = MessagePool::Mode::Pooling;
  bool oracles = true;
  bool profile = false;
  unsigned jobs = 0;  ///< 0 = auto
  fault::FaultPlan faults;
};

/// A variable's value by name, or nullptr when it is unset.
using Lookup = std::function<const char*(const char* name)>;

/// The process environment.
[[nodiscard]] const char* process_env(const char* name);

/// Parses every setting from `lookup`; aborts on a bad value.
[[nodiscard]] Settings parse(const Lookup& lookup);

/// parse(process_env), read once per process.
[[nodiscard]] const Settings& settings();

/// `name` read as a switch; `fallback` when unset or empty.
[[nodiscard]] bool read_switch(const Lookup& lookup, const char* name,
                               bool fallback);

/// `name` read as a decimal count in [min, max] (digits only: no sign, no
/// blanks); `fallback` when unset or empty.
[[nodiscard]] unsigned long read_count(const Lookup& lookup, const char* name,
                                       unsigned long min, unsigned long max,
                                       unsigned long fallback);

}  // namespace epicast::env
