// epicast — heartbeat-based failure detection for the live cluster.
//
// The simulator knows who is alive; a real cluster has to find out. Each
// daemon periodically sends a HeartbeatMessage (Control channel — exempt
// from synthetic ε and Gilbert–Elliott loss, but *not* from blackholes: a
// dead link carries nothing) to every current overlay neighbour, and treats
// any received frame from a peer as proof of life. Silence accumulates in
// missed-interval strikes:
//
//     kSuspectAfterMissed  → suspected:  the recovery protocol's
//                            peer-health table is primed so gossip-round
//                            target selection steers around the peer;
//     kDeadAfterMissed     → confirmed dead: the daemon's route-repair
//                            callback runs (link break + deterministic
//                            detour links via the Reconfigurator path).
//
// Heartbeats carry the sender's incarnation (journal boot count). An
// incarnation jump is a restart observation: the peer died and came back —
// the returned-callback re-attaches its links and re-advertises routes.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "epicast/pubsub/dispatcher.hpp"
#include "epicast/pubsub/messages.hpp"
#include "epicast/runtime/async_runtime.hpp"

namespace epicast::daemon {

struct FailureDetectorConfig {
  Duration interval = Duration::millis(250);
  /// This node's boot count, carried in every heartbeat.
  std::uint64_t incarnation = 1;
};

class FailureDetector {
 public:
  /// Missed heartbeat intervals before a neighbour is suspected, and
  /// before it is confirmed dead.
  static constexpr std::uint64_t kSuspectAfterMissed = 3;
  static constexpr std::uint64_t kDeadAfterMissed = 8;
  /// Stream watermarks piggybacked per heartbeat (anti-entropy): each beat
  /// carries the next this many entries of the recovery protocol's
  /// witnessed-watermark table, rotating through it.
  static constexpr std::size_t kMarksPerBeat = 64;

  using PeerCallback = std::function<void(NodeId)>;

  FailureDetector(Dispatcher& dispatcher, runtime::AsyncRuntime& rt,
                  FailureDetectorConfig config);

  /// Fired once per peer on suspicion onset / death confirmation / return
  /// (first liveness signal after suspicion or death, or an incarnation
  /// jump). All run inside the event loop.
  void set_on_peer_dead(PeerCallback cb) { on_dead_ = std::move(cb); }
  void set_on_peer_returned(PeerCallback cb) { on_returned_ = std::move(cb); }

  /// Starts the heartbeat/check timer; every current neighbour gets a
  /// fresh liveness deadline (no instant suspicion at boot).
  void start();
  void stop();

  /// Any frame from `from` proves the process behind it is alive — wired
  /// to the runtime's frame observer so data traffic suppresses false
  /// suspicion even when heartbeats are lost to blackholes one way.
  void note_traffic(NodeId from);

  /// HeartbeatMessage arrived (the dispatcher's heartbeat listener).
  void on_heartbeat(NodeId from, const HeartbeatMessage& hb);

  [[nodiscard]] bool suspected(NodeId peer) const;
  [[nodiscard]] bool confirmed_dead(NodeId peer) const;
  [[nodiscard]] const FailureDetectorConfig& config() const { return cfg_; }

 private:
  struct PeerState {
    SimTime last_heard;
    std::uint64_t incarnation = 0;  ///< 0 = no heartbeat seen yet
    bool suspected = false;
    bool dead = false;
  };

  void tick();
  void mark_alive(NodeId from);

  Dispatcher& d_;
  runtime::AsyncRuntime& rt_;
  FailureDetectorConfig cfg_;
  PeerCallback on_dead_;
  PeerCallback on_returned_;
  std::unordered_map<std::uint32_t, PeerState> peers_;
  runtime::PeriodicTimer timer_;
  /// Rotation position in the recovery protocol's watermark table.
  std::size_t mark_cursor_ = 0;
  std::vector<StreamMark> marks_scratch_;
};

}  // namespace epicast::daemon
