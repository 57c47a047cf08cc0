// epicast — runtime conformance oracles.
//
// A verification layer for live runs: an Oracle observes a scenario through
// hooks the stack already exposes — transport sends (TransportObserver),
// local deliveries (Dispatcher::DeliveryListener), publishes (Workload's
// publish listener) — and checks one protocol-level safety property while
// the simulation executes. run_scenario wires the default suite
// (oracle/checks.hpp) into every run unless ScenarioConfig::oracles is off,
// so every ctest scenario doubles as a conformance check.
//
// Oracles are pure observers: they schedule no simulator events, draw no
// random numbers, and mutate no protocol state, so enabling them cannot
// change a run's outcome — the determinism seed-guard in
// test_determinism.cpp pins exactly that.
//
// A violated property either aborts immediately with sim-time + node id
// (FailMode::Abort, what run_scenario uses) or is recorded for inspection
// (FailMode::Record, what the oracle self-tests use to prove each oracle
// fires on bad input).
//
// Running with EPICAST_ORACLES=0 (or ScenarioConfig::oracles = false)
// leaves the wiring out of run_scenario, for overhead-sensitive
// benchmarking; see docs/EXTENDING.md for how to register a new oracle.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "epicast/common/ids.hpp"
#include "epicast/net/transport.hpp"
#include "epicast/pubsub/event.hpp"
#include "epicast/sim/time.hpp"

namespace epicast {
class PubSubNetwork;
}

namespace epicast::oracle {

/// One violated property: where and when it fired, which oracle, and a
/// human-readable account of the offending observation.
struct Violation {
  SimTime when;
  NodeId node;
  std::string oracle;  ///< Oracle::name() of the check that fired
  std::string detail;
};

/// What the suite lets its oracles see of the scenario under test. The
/// network may be null in unit harnesses that drive hooks by hand; oracles
/// needing it skip their checks then.
struct OracleContext {
  Simulator* sim = nullptr;
  PubSubNetwork* network = nullptr;
  SizingMode sizing = SizingMode::Nominal;
};

class OracleSuite;

/// One safety property. Override the hooks the property needs; every hook
/// is optional. Within a hook, call checked() for each performed check and
/// fail() when the property is violated.
class Oracle {
 public:
  virtual ~Oracle() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  /// A dispatcher published a new event.
  virtual void on_publish(const EventPtr& event) { (void)event; }

  /// A dispatcher delivered an event locally (first reception of a
  /// matching event; `recovered` marks deliveries via the recovery
  /// machinery).
  virtual void on_delivery(NodeId node, const EventPtr& event,
                           bool recovered) {
    (void)node, (void)event, (void)recovered;
  }

  /// The transport accepted a send (before any loss draw).
  virtual void on_send(NodeId from, NodeId to, const Message& msg,
                       bool overlay) {
    (void)from, (void)to, (void)msg, (void)overlay;
  }

  /// Called once after the simulation finishes — end-of-run global checks.
  virtual void on_scenario_end() {}

 protected:
  [[nodiscard]] const OracleContext& ctx() const;

  /// Counts one performed check (surfaces as ScenarioResult::oracle_checks,
  /// the proof that oracles were active).
  void checked();

  /// Reports a violation at `node`, stamped with the current sim time.
  /// Aborts or records depending on the suite's FailMode.
  void fail(NodeId node, std::string detail);

 private:
  friend class OracleSuite;
  OracleSuite* suite_ = nullptr;
};

enum class FailMode {
  Abort,   ///< first violation aborts the process (run_scenario)
  Record,  ///< violations accumulate in violations() (self-tests)
};

/// Owns a set of oracles and fans the scenario hooks out to them. Doubles
/// as the TransportObserver to register with Transport::add_observer; the
/// delivery/publish hooks are forwarded by the scenario runner's listeners.
class OracleSuite final : public TransportObserver {
 public:
  OracleSuite(OracleContext ctx, FailMode mode);

  /// Registers an oracle; it observes every subsequent hook invocation.
  void add(std::unique_ptr<Oracle> oracle);

  void notify_publish(const EventPtr& event);
  void notify_delivery(NodeId node, const EventPtr& event, bool recovered);
  void notify_scenario_end();

  // -- TransportObserver ----------------------------------------------------
  void on_send(NodeId from, NodeId to, const Message& msg,
               bool overlay) override;
  void on_loss(NodeId, NodeId, const Message&, bool) override {}
  void on_drop_no_link(NodeId, NodeId, const Message&) override {}

  [[nodiscard]] const OracleContext& context() const { return ctx_; }
  [[nodiscard]] std::size_t oracle_count() const { return oracles_.size(); }
  /// Total checks performed across all oracles.
  [[nodiscard]] std::uint64_t checks() const { return checks_; }
  /// Recorded violations (FailMode::Record only — Abort never returns).
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }

 private:
  friend class Oracle;
  void report(const Oracle& oracle, NodeId node, std::string detail);

  OracleContext ctx_;
  FailMode mode_;
  std::vector<std::unique_ptr<Oracle>> oracles_;
  std::vector<Violation> violations_;
  std::uint64_t checks_ = 0;
};

/// Installs the six built-in oracles (oracle/checks.hpp) into `suite`.
void add_default_oracles(OracleSuite& suite);

}  // namespace epicast::oracle
