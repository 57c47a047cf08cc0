// epicast — common machinery of the epidemic recovery protocols (§III-B).
//
// All algorithms share: a gossip-round timer (interval T, desynchronized
// across dispatchers), the retransmission buffer (EventCache, size β), the
// P_forward fan-out rule, and the out-of-band request/reply exchange.
// Concrete algorithms implement on_round() and handle_digest().
//
// Once a reader asks for them (witness_streams(): the daemon, when its
// heartbeats carry stream marks), every event crossing the dispatcher also
// advances this node's witnessed stream watermarks (note_stream_marks, once
// per pattern of the event), kept as an insertion-ordered vector indexed by
// a FlatHashMap: one probe per pattern, and stream_marks_into() seeks its
// cursor in O(1). Until then no event touches them — a simulation run has
// no reader, and the table would grow with every (source, pattern) stream.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "epicast/common/flat_hash_map.hpp"
#include "epicast/gossip/adaptive_interval.hpp"
#include "epicast/gossip/config.hpp"
#include "epicast/gossip/event_cache.hpp"
#include "epicast/gossip/factory.hpp"
#include "epicast/gossip/messages.hpp"
#include "epicast/gossip/stats.hpp"
#include "epicast/metrics/hotpath_profiler.hpp"
#include "epicast/pubsub/dispatcher.hpp"
#include "epicast/pubsub/recovery.hpp"

namespace epicast {

class GossipProtocolBase : public RecoveryProtocol {
 public:
  GossipProtocolBase(Dispatcher& dispatcher, GossipConfig config);

  void start() override;
  void stop() override;

  /// Cold restarts drop the retransmission buffer and invalidate pending
  /// retry deadlines (restart-epoch guard); peer-health observations are
  /// discarded either way — the node's own outage garbles them.
  void on_restart(fault::RestartPolicy policy) override;

  /// External liveness signals (the daemon's failure detector) feed the
  /// same peer-health table the retry machinery uses, so a suspect peer is
  /// steered around during round target selection whichever layer noticed
  /// it first.
  void on_peer_alive(NodeId peer) override;
  void on_peer_suspected(NodeId peer) override;

  /// Warm-restart snapshot restore: inserts `events` into the
  /// retransmission buffer (normal eviction applies).
  void preload_cache(const std::vector<EventPtr>& events) override;

  /// From now on every event crossing the dispatcher or preloaded from a
  /// snapshot advances the witnessed stream marks.
  void witness_streams() override { witness_streams_ = true; }

  /// Rotating slice of the stream watermarks this node has witnessed since
  /// witness_streams() (every event crossing the dispatcher advances them,
  /// cached or not — a mark means "this seq exists", not "I can serve
  /// it"). Piggybacked on heartbeats by the daemon's failure detector.
  std::size_t stream_marks_into(std::size_t cursor, std::size_t max_entries,
                                std::vector<StreamMark>& out) const override;

  /// Default behaviour: cache the event iff this dispatcher is responsible
  /// for it — it is the publisher or a local subscriber (§IV-A). Pull
  /// protocols extend this with loss detection and route recording.
  void on_event(const EventPtr& event, const EventContext& ctx) override;

  /// Dispatches by GossipKind to handle_digest / handle_request /
  /// handle_reply.
  void on_gossip(NodeId from, const MessagePtr& msg) final;

  [[nodiscard]] EventCache& cache() { return cache_; }
  [[nodiscard]] const GossipConfig& config() const { return cfg_; }
  [[nodiscard]] Duration current_interval() const {
    return adaptive_.enabled() ? adaptive_.current() : cfg_.interval;
  }

  /// Counters live in gossip/stats.hpp (GossipStats) so they can be summed
  /// across dispatchers; the alias keeps existing call sites compiling.
  using Stats = GossipStats;
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const GossipStats* gossip_stats() const override {
    return &stats_;
  }
  [[nodiscard]] const EventCache* event_cache() const override {
    return &cache_;
  }

 protected:
  /// One gossip round. Return true if the round did useful work (drives the
  /// adaptive-interval extension); return false for skipped rounds.
  virtual bool on_round() = 0;

  /// A digest arrived (push or pull flavours).
  virtual void handle_digest(NodeId from, const GossipMessage& msg) = 0;

  /// A request for cached events arrived; default serves from the cache.
  virtual void handle_request(NodeId from, const RecoveryRequestMessage& msg);

  /// A reply arrived; injects its events into the dispatcher.
  void handle_reply(const RecoveryReplyMessage& msg);

  /// Serves a negative digest from the cache: replies out-of-band to the
  /// gossiper with every wanted event found, returns the remainder. Shared
  /// by the pull digest handlers and by cross-protocol tolerance (a node
  /// running a different algorithm can still serve what it holds).
  std::vector<LostEntryInfo> serve_from_cache(
      NodeId gossiper, const std::vector<LostEntryInfo>& wanted);

  /// Keeps each candidate independently with probability P_forward, into a
  /// caller-owned buffer (cleared first; must not alias `candidates`).
  /// With `ensure_progress` (used when a digest is "propagated along the
  /// dispatching tree as if it were a normal event message", §III-B), a
  /// non-empty candidate set never yields an empty subset: P_forward thins
  /// the fan-out at branches but cannot stall the digest on a chain.
  void fanout_into(std::span<const NodeId> candidates, bool ensure_progress,
                   std::vector<NodeId>& out);

  void send_digest(NodeId to, MessagePtr msg, bool originated);
  void send_request(NodeId to, std::vector<EventId> ids);
  void send_reply(NodeId to, std::vector<EventPtr> events);

  /// True if this dispatcher must cache the event (publisher or subscriber).
  [[nodiscard]] bool responsible_for(const EventData& event,
                                     bool local_publish) const;

  /// True when the pull-hardening machinery is active
  /// (GossipConfig::request_timeout > 0).
  [[nodiscard]] bool retry_hardening() const {
    return cfg_.request_timeout > Duration::zero();
  }
  /// Peer-health bookkeeping, meaningful only under retry_hardening():
  /// any gossip heard from a peer clears its record; a timed-out exchange
  /// increments it; two consecutive timeouts make the peer suspect.
  [[nodiscard]] bool peer_suspect(NodeId peer) const;
  void note_peer_alive(NodeId peer);
  void note_peer_timeout(NodeId peer);
  /// Removes suspect peers from `targets` — unless every target is suspect,
  /// in which case the set is left alone (a bad guess beats silence).
  void prune_suspects(std::vector<NodeId>& targets) const;

  /// Duplicate-digest suppression for cyclic overlays. §III-B propagates
  /// digests "along the dispatching tree", where every node sees a digest
  /// at most once per round; on the scale overlays the per-pattern route
  /// graph has cycles, so the same digest arrives along several paths and
  /// every copy would be re-forwarded — an exponential flood the hop TTL
  /// alone cannot tame. Returns true (caller drops the copy) iff `key` was
  /// recorded within the last half gossip interval. Origination is
  /// per-round (≥ one interval apart), so tree runs never trip this and
  /// the paper figures stay bit-identical. Keys are content hashes; a
  /// collision merely suppresses one forward.
  [[nodiscard]] bool digest_duplicate(std::uint64_t key);
  /// splitmix64-style mixer for digest keys.
  [[nodiscard]] static std::uint64_t mix_digest_key(std::uint64_t a,
                                                    std::uint64_t b);

  /// Guards deadline callbacks across restarts: a callback scheduled before
  /// a cold restart must not act on the reborn node's state.
  [[nodiscard]] std::uint64_t restart_epoch() const { return restart_epoch_; }
  /// True while the round timer runs (false while crashed or stopped).
  [[nodiscard]] bool active() const { return timer_.running(); }

  Dispatcher& d_;
  GossipConfig cfg_;
  EventCache cache_;
  /// Builds every outgoing gossip message (digests, requests, replies) —
  /// pool-allocated from the owning Simulator's MessagePool.
  GossipMessageFactory msgs_;
  Stats stats_;

  /// Per-round / per-handler scratch buffers. Safe to reuse: sends are
  /// asynchronous (the transport schedules delivery), so no callee
  /// re-enters the protocol while a round or digest handler is running.
  std::vector<NodeId> targets_scratch_;
  std::vector<NodeId> fanout_scratch_;
  std::vector<EventId> ids_scratch_;
  std::vector<LostEntryInfo> wanted_scratch_;

 private:
  void run_round();
  /// Advances the witnessed watermark for each of the event's streams.
  void note_stream_marks(const EventData& event);
  /// Schedules the deadline check for a pending request (retry hardening).
  void track_request(NodeId to, std::vector<EventId> ids,
                     std::uint32_t attempt);

  static constexpr std::uint32_t kSuspectAfterTimeouts = 2;
  /// Each retry of a tracked request waits this factor longer than the
  /// previous attempt.
  static constexpr double kRequestBackoff = 2.0;

  HotpathProfiler& prof_;

  AdaptiveIntervalController adaptive_;
  runtime::PeriodicTimer timer_;
  /// Direct-mapped recent-digest table (see digest_duplicate()); the size
  /// must stay a power of two.
  struct DigestMark {
    std::uint64_t key = 0;
    SimTime at;
  };
  std::array<DigestMark, 128> digest_marks_{};
  /// Consecutive timed-out exchanges per peer (keyed by NodeId value);
  /// empty unless retry_hardening().
  std::unordered_map<std::uint32_t, std::uint32_t> peer_timeouts_;
  std::uint64_t restart_epoch_ = 0;
  /// Highest sequence number witnessed per (source, pattern) — the feed
  /// for stream_marks_into(), recorded only while witness_streams_. In
  /// first-witnessed order, so the rotation cursor is stable and a stream
  /// witnessed mid-lap is appended ahead of the wrap; stream_mark_index_
  /// maps stream_key() to the position. Cleared on cold restart along with
  /// the cache.
  bool witness_streams_ = false;
  std::vector<StreamMark> stream_marks_;
  FlatHashMap<std::uint64_t, std::uint32_t, U64Key> stream_mark_index_;
};

/// The baseline: plain best-effort dispatching, no recovery (§IV's
/// "no recovery" curves).
class NoRecoveryProtocol final : public RecoveryProtocol {
 public:
  void on_event(const EventPtr&, const EventContext&) override {}
  void on_gossip(NodeId, const MessagePtr&) override {}
  [[nodiscard]] const char* name() const override { return "no-recovery"; }
};

/// Creates the protocol implementing `algorithm` for `dispatcher`.
[[nodiscard]] std::unique_ptr<RecoveryProtocol> make_recovery(
    Algorithm algorithm, Dispatcher& dispatcher, const GossipConfig& config);

/// True if the algorithm needs event messages to record their routes
/// (publisher-based and combined pull); the scenario layer uses this to set
/// DispatcherConfig::record_routes.
[[nodiscard]] bool algorithm_needs_routes(Algorithm algorithm);

}  // namespace epicast
