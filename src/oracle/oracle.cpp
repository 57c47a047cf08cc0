#include "epicast/oracle/oracle.hpp"

#include <utility>

#include "epicast/common/assert.hpp"
#include "epicast/oracle/checks.hpp"

namespace epicast::oracle {

const OracleContext& Oracle::ctx() const {
  EPICAST_ASSERT_MSG(suite_ != nullptr,
                     "oracle used before OracleSuite::add()");
  return suite_->ctx_;
}

void Oracle::checked() { ++suite_->checks_; }

void Oracle::fail(NodeId node, std::string detail) {
  suite_->report(*this, node, std::move(detail));
}

OracleSuite::OracleSuite(OracleContext ctx, FailMode mode)
    : ctx_(ctx), mode_(mode) {}

void OracleSuite::add(std::unique_ptr<Oracle> oracle) {
  EPICAST_ASSERT(oracle != nullptr);
  oracle->suite_ = this;
  oracles_.push_back(std::move(oracle));
}

void OracleSuite::notify_publish(const EventPtr& event) {
  for (const auto& o : oracles_) o->on_publish(event);
}

void OracleSuite::notify_delivery(NodeId node, const EventPtr& event,
                                  bool recovered) {
  for (const auto& o : oracles_) o->on_delivery(node, event, recovered);
}

void OracleSuite::notify_scenario_end() {
  for (const auto& o : oracles_) o->on_scenario_end();
}

void OracleSuite::on_send(NodeId from, NodeId to, const Message& msg,
                          bool overlay) {
  for (const auto& o : oracles_) o->on_send(from, to, msg, overlay);
}

std::size_t OracleSuite::memory_bytes() const {
  std::size_t n = 0;
  for (const auto& o : oracles_) n += o->memory_bytes();
  return n;
}

void OracleSuite::report(const Oracle& oracle, NodeId node,
                         std::string detail) {
  const SimTime when = ctx_.sim != nullptr ? ctx_.sim->now() : SimTime::zero();
  Violation v{when, node, oracle.name(), std::move(detail)};
  if (mode_ == FailMode::Abort) {
    const std::string msg = "conformance oracle '" + v.oracle +
                            "' violated at t=" + to_string(v.when) +
                            " node=" + std::to_string(v.node.value()) + ": " +
                            v.detail;
    detail::assert_fail("oracle violation", __FILE__, __LINE__, msg);
  }
  violations_.push_back(std::move(v));
}

void add_default_oracles(OracleSuite& suite) {
  suite.add(std::make_unique<UniqueDeliveryOracle>());
  suite.add(std::make_unique<MatchingDeliveryOracle>());
  suite.add(std::make_unique<ConservationOracle>());
  suite.add(std::make_unique<BufferBoundOracle>());
  suite.add(std::make_unique<DigestCoverageOracle>());
  suite.add(std::make_unique<WireRoundTripOracle>());
}

}  // namespace epicast::oracle
