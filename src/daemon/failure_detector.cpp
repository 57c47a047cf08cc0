#include "epicast/daemon/failure_detector.hpp"

#include <utility>

#include "epicast/common/message_pool.hpp"

namespace epicast::daemon {

FailureDetector::FailureDetector(Dispatcher& dispatcher,
                                 runtime::AsyncRuntime& rt,
                                 FailureDetectorConfig config)
    : d_(dispatcher), rt_(rt), cfg_(config) {}

void FailureDetector::start() {
  const SimTime now = rt_.now();
  for (NodeId n : d_.neighbors()) {
    PeerState& st = peers_[n.value()];
    st.last_heard = now;
    st.suspected = false;
    st.dead = false;
  }
  // Desynchronize the first beat across daemons (same trick as the gossip
  // round timer) so a cluster of simultaneous launches doesn't thump.
  const Duration first = cfg_.interval * d_.rng().uniform(0.5, 1.0);
  timer_ = d_.runtime().every(first, cfg_.interval, [this]() { tick(); });
}

void FailureDetector::stop() { timer_.stop(); }

void FailureDetector::tick() {
  const SimTime now = rt_.now();
  // The anti-entropy slice is the same for every neighbour this beat: one
  // rotating window over the recovery protocol's witnessed watermarks.
  marks_scratch_.clear();
  if (d_.recovery() != nullptr) {
    mark_cursor_ = d_.recovery()->stream_marks_into(
        mark_cursor_, kMarksPerBeat, marks_scratch_);
  }
  for (NodeId n : d_.neighbors()) {
    MessagePtr hb = make_pooled<HeartbeatMessage>(d_.pool(), cfg_.incarnation,
                                                  marks_scratch_);
    d_.send_overlay(n, std::move(hb));
    rt_.note_heartbeat_sent();
    // A neighbour gained through route repair starts with a fresh deadline.
    peers_.try_emplace(n.value(), PeerState{now, 0, false, false});
  }

  // Escalation is scoped to *current overlay neighbours*: those are the
  // peers obliged to heartbeat us. Anyone else in the table — a one-shot
  // pull partner, a detour peer whose link was since repaired away — owes
  // us no traffic, and suspecting it would poison recovery's target
  // selection cluster-wide.
  for (auto& [raw, st] : peers_) {
    if (st.dead) continue;
    const NodeId peer{raw};
    if (!d_.has_link_to(peer)) continue;
    const Duration silence = now - st.last_heard;
    const auto missed = static_cast<std::uint64_t>(
        silence.count_nanos() / std::max<std::int64_t>(
                                    1, cfg_.interval.count_nanos()));
    if (!st.suspected && missed >= kSuspectAfterMissed) {
      st.suspected = true;
      rt_.note_peer_suspected();
      if (d_.recovery() != nullptr) d_.recovery()->on_peer_suspected(peer);
      if (on_suspected_) on_suspected_(peer);
    }
    if (st.suspected && missed >= kDeadAfterMissed) {
      st.dead = true;
      rt_.note_peer_confirmed_dead();
      if (on_dead_) on_dead_(peer);
    }
  }
}

void FailureDetector::mark_alive(NodeId from) {
  auto [it, inserted] =
      peers_.try_emplace(from.value(), PeerState{rt_.now(), 0, false, false});
  PeerState& st = it->second;
  st.last_heard = rt_.now();
  if (!st.suspected && !st.dead) return;
  const bool was_dead = st.dead;
  st.suspected = false;
  st.dead = false;
  if (d_.recovery() != nullptr) d_.recovery()->on_peer_alive(from);
  if (was_dead && on_returned_) on_returned_(from);
}

void FailureDetector::note_traffic(NodeId from) {
  // Refresh only: any frame proves life, but a frame from a non-monitored
  // peer (a pull request from across the cluster) must not start a
  // liveness deadline that peer never agreed to keep.
  if (peers_.find(from.value()) == peers_.end()) return;
  mark_alive(from);
}

void FailureDetector::on_heartbeat(NodeId from, const HeartbeatMessage& hb) {
  rt_.note_heartbeat_received();
  if (!hb.marks().empty() && d_.recovery() != nullptr) {
    d_.recovery()->on_stream_marks(hb.marks());
  }
  auto [it, inserted] =
      peers_.try_emplace(from.value(), PeerState{rt_.now(), 0, false, false});
  PeerState& st = it->second;
  if (st.incarnation != 0 && hb.incarnation() > st.incarnation) {
    // The peer rebooted between two heartbeats we saw — count the restart
    // even if silence never crossed the death threshold here.
    rt_.note_restart_observed();
    const bool quiet_restart = !st.suspected && !st.dead;
    st.incarnation = hb.incarnation();
    mark_alive(from);
    if (quiet_restart && on_returned_) on_returned_(from);
    return;
  }
  st.incarnation = hb.incarnation();
  mark_alive(from);
}

bool FailureDetector::suspected(NodeId peer) const {
  const auto it = peers_.find(peer.value());
  return it != peers_.end() && it->second.suspected;
}

bool FailureDetector::confirmed_dead(NodeId peer) const {
  const auto it = peers_.find(peer.value());
  return it != peers_.end() && it->second.dead;
}

}  // namespace epicast::daemon
