#include "epicast/gossip/loss_detector.hpp"

#include <algorithm>

#include "epicast/common/assert.hpp"

namespace epicast {

LossDetector::LossDetector(std::uint64_t max_gap_report)
    : max_gap_report_(max_gap_report) {
  EPICAST_ASSERT(max_gap_report >= 1);
}

std::vector<SeqNo> LossDetector::observe(NodeId source, Pattern pattern,
                                         SeqNo seq) {
  EPICAST_ASSERT_MSG(seq.value() >= 1, "sequence numbers start at 1");
  std::vector<SeqNo> missing;

  auto [slot, first_contact] = high_.try_emplace(stream_key(source, pattern));
  std::uint64_t& high = *slot;
  if (first_contact) {
    // Expectation starts here; earlier history is unknowable (§III-B).
    high = seq.value();
    return missing;
  }
  if (seq.value() <= high) return missing;  // old or recovered copy

  const std::uint64_t gap_begin = high + 1;
  const std::uint64_t gap_end = seq.value();  // exclusive
  std::uint64_t from = gap_begin;
  if (gap_end - gap_begin > max_gap_report_) {
    from = gap_end - max_gap_report_;  // clamp: report newest only
  }
  for (std::uint64_t s = from; s < gap_end; ++s) {
    missing.emplace_back(s);
  }
  gaps_detected_ += missing.size();
  high = seq.value();
  return missing;
}

void LossDetector::seed(NodeId source, Pattern pattern, SeqNo seq) {
  std::uint64_t& high = high_[stream_key(source, pattern)];
  high = std::max(high, seq.value());
}

SeqNo LossDetector::high_watermark(NodeId source, Pattern pattern) const {
  const std::uint64_t* high = high_.find(stream_key(source, pattern));
  return high == nullptr ? SeqNo{0} : SeqNo{*high};
}

}  // namespace epicast
