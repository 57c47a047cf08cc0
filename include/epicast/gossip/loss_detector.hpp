// epicast — sequence-gap loss detection (§III-B, Pull).
//
// Content-based systems have no per-subject sequence numbers, so the paper
// tags every event, at its source, with a per-(source, pattern) sequence
// number. A subscriber of pattern p observes the stream of sequence numbers
// for each (source, p) it hears from; a jump reveals exactly which events
// were lost.
//
// The first event heard from a (source, pattern) initializes the expectation
// — losses before that point are undetectable, as in the paper.
//
// observe() runs once per pattern of every event a subscriber receives, so
// the per-stream watermarks live in a FlatHashMap keyed by stream_key():
// one probe of a flat slot array, sized by the streams actually heard.
#pragma once

#include <cstdint>
#include <vector>

#include "epicast/common/flat_hash_map.hpp"
#include "epicast/common/ids.hpp"

namespace epicast {

class LossDetector {
 public:
  /// Gaps larger than `max_gap_report` yield only the newest entries, so a
  /// long partition cannot flood the Lost buffer with unrecoverable history.
  explicit LossDetector(std::uint64_t max_gap_report);

  /// Records the reception of sequence number `seq` for (source, pattern)
  /// and returns the sequence numbers now known to be missing (possibly
  /// empty). Out-of-order receipt of an old number is not a loss.
  [[nodiscard]] std::vector<SeqNo> observe(NodeId source, Pattern pattern,
                                           SeqNo seq);

  /// Highest sequence number seen for (source, pattern), or SeqNo{0}.
  [[nodiscard]] SeqNo high_watermark(NodeId source, Pattern pattern) const;

  /// Raises the expectation for (source, pattern) to at least `seq` without
  /// reporting a gap. A warm-restarted daemon seeds its detector from the
  /// cache snapshot so the first live event after relaunch exposes the
  /// outage window as a gap instead of silently re-baselining on it.
  void seed(NodeId source, Pattern pattern, SeqNo seq);

  [[nodiscard]] std::uint64_t gaps_detected() const { return gaps_detected_; }
  [[nodiscard]] std::uint64_t streams_tracked() const {
    return static_cast<std::uint64_t>(high_.size());
  }

  /// Forgets every per-stream watermark (cold restart): the next event from
  /// each (source, pattern) re-baselines the expectation, so losses across
  /// the restart are undetectable — exactly the paper's first-contact rule.
  void reset() { high_.clear(); }

 private:
  std::uint64_t max_gap_report_;
  /// Highest seq heard per stream_key(source, pattern).
  FlatHashMap<std::uint64_t, std::uint64_t, U64Key> high_;
  std::uint64_t gaps_detected_ = 0;
};

}  // namespace epicast
