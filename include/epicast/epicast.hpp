// epicast — umbrella header.
//
// epicast is a C++20 library reproducing "Epidemic Algorithms for Reliable
// Content-Based Publish-Subscribe: An Evaluation" (Costa, Migliavacca,
// Picco, Cugola — ICDCS 2004): a distributed content-based pub-sub
// dispatching network with push / subscriber-pull / publisher-pull /
// combined-pull / random-pull epidemic event recovery, on a deterministic
// discrete-event simulation substrate.
//
// Typical entry points:
//   * epicast::ScenarioConfig + epicast::run_scenario — whole experiments;
//   * epicast::PubSubNetwork / Dispatcher — assemble networks by hand;
//   * epicast::make_recovery — attach an epidemic recovery protocol.
#pragma once

#include "epicast/common/assert.hpp"
#include "epicast/common/env.hpp"
#include "epicast/common/ids.hpp"
#include "epicast/common/logging.hpp"
#include "epicast/common/rng.hpp"
#include "epicast/compare/pure_gossip.hpp"
#include "epicast/fault/controller.hpp"
#include "epicast/fault/gilbert_elliott.hpp"
#include "epicast/fault/plan.hpp"
#include "epicast/fault/restart_policy.hpp"
#include "epicast/gossip/config.hpp"
#include "epicast/gossip/event_cache.hpp"
#include "epicast/gossip/messages.hpp"
#include "epicast/gossip/protocol.hpp"
#include "epicast/gossip/pull.hpp"
#include "epicast/gossip/push.hpp"
#include "epicast/metrics/delivery_tracker.hpp"
#include "epicast/metrics/message_stats.hpp"
#include "epicast/metrics/result_json.hpp"
#include "epicast/metrics/time_series.hpp"
#include "epicast/net/link_model.hpp"
#include "epicast/oracle/checks.hpp"
#include "epicast/oracle/oracle.hpp"
#include "epicast/net/message.hpp"
#include "epicast/net/overlays.hpp"
#include "epicast/net/reconfigurator.hpp"
#include "epicast/net/topology.hpp"
#include "epicast/net/transport.hpp"
#include "epicast/pubsub/dispatcher.hpp"
#include "epicast/pubsub/event.hpp"
#include "epicast/pubsub/messages.hpp"
#include "epicast/pubsub/network.hpp"
#include "epicast/pubsub/pattern.hpp"
#include "epicast/pubsub/subscription_table.hpp"
#include "epicast/scenario/cli.hpp"
#include "epicast/scenario/config.hpp"
#include "epicast/scenario/report.hpp"
#include "epicast/scenario/runner.hpp"
#include "epicast/scenario/sweep.hpp"
#include "epicast/scenario/workload.hpp"
#include "epicast/sim/scheduler.hpp"
#include "epicast/sim/simulator.hpp"
#include "epicast/sim/time.hpp"
#include "epicast/wire/buffer.hpp"
#include "epicast/wire/codec.hpp"
#include "epicast/wire/error.hpp"
