#include "epicast/gossip/lost_buffer.hpp"

#include <algorithm>

#include "epicast/common/assert.hpp"

namespace epicast {

LostBuffer::LostBuffer(std::size_t capacity, Duration ttl)
    : capacity_(capacity), ttl_(ttl) {
  EPICAST_ASSERT(capacity > 0);
  EPICAST_ASSERT(ttl > Duration::zero());
}

void LostBuffer::note_added(Pattern p) {
  if (p.value() >= pattern_counts_.size()) {
    pattern_counts_.resize(p.value() + 1, 0);
  }
  if (pattern_counts_[p.value()]++ == 0) pattern_mask_.set(p);
}

void LostBuffer::note_removed(Pattern p) {
  EPICAST_ASSERT(p.value() < pattern_counts_.size());
  EPICAST_ASSERT(pattern_counts_[p.value()] > 0);
  if (--pattern_counts_[p.value()] == 0) pattern_mask_.clear(p);
}

void LostBuffer::kill(std::uint32_t pos) {
  Entry& e = order_[pos];
  e.live = false;
  by_key_.erase(e.info);
  note_removed(e.info.pattern);
}

void LostBuffer::settle() {
  while (head_ < order_.size() && !order_[head_].live) ++head_;
  const std::size_t live = by_key_.size();
  if (order_.size() - live <= live) return;
  // Tombstones outnumber live entries: slide the live ones down, oldest
  // first, and re-point the index at their new positions.
  std::size_t out = 0;
  for (std::size_t i = head_; i < order_.size(); ++i) {
    if (!order_[i].live) continue;
    if (out != i) {
      order_[out] = order_[i];
      *by_key_.find(order_[out].info) = static_cast<std::uint32_t>(out);
    }
    ++out;
  }
  order_.resize(out);
  head_ = 0;
}

bool LostBuffer::add(const LostEntryInfo& entry, SimTime now) {
  if (by_key_.contains(entry)) return false;
  if (by_key_.size() >= capacity_) {
    // Overflow: the oldest entry is the least likely to still be cached
    // anywhere, so it is the right one to abandon.
    kill(static_cast<std::uint32_t>(head_));
    settle();
    ++stats_.overflowed;
  }
  by_key_.try_emplace(entry, static_cast<std::uint32_t>(order_.size()));
  order_.push_back(Entry{entry, now});
  note_added(entry.pattern);
  ++stats_.added;
  return true;
}

bool LostBuffer::remove(const LostEntryInfo& entry) {
  // Fast reject via the pattern summary: this runs once per pattern of
  // every received event and almost always misses.
  if (surely_absent(entry.pattern)) return false;
  const std::uint32_t* pos = by_key_.find(entry);
  if (pos == nullptr) return false;
  kill(*pos);
  ++stats_.recovered;
  settle();
  return true;
}

std::size_t LostBuffer::expire(SimTime now) {
  std::size_t n = 0;
  while (head_ < order_.size() && now - order_[head_].detected_at > ttl_) {
    kill(static_cast<std::uint32_t>(head_));
    settle();
    ++n;
  }
  stats_.expired += n;
  return n;
}

bool LostBuffer::contains(const LostEntryInfo& entry) const {
  return by_key_.contains(entry);
}

void LostBuffer::clear() {
  order_.clear();
  head_ = 0;
  by_key_.clear();
  pattern_mask_ = PatternSet{};
  std::fill(pattern_counts_.begin(), pattern_counts_.end(), 0);
}

template <typename Fn>
void LostBuffer::scan(Fn&& fn) const {
  for (std::size_t i = head_; i < order_.size(); ++i) {
    if (order_[i].live && !fn(order_[i].info)) return;
  }
}

template <typename Pred>
std::vector<LostEntryInfo> LostBuffer::collect(Pred&& pred) const {
  std::vector<LostEntryInfo> out;
  scan([&](const LostEntryInfo& info) {
    if (pred(info)) out.push_back(info);
    return true;
  });
  return out;
}

std::vector<LostEntryInfo> LostBuffer::entries_for_pattern(Pattern p) const {
  std::vector<LostEntryInfo> out;
  entries_for_pattern_into(p, out);
  return out;
}

void LostBuffer::entries_for_pattern_into(
    Pattern p, std::vector<LostEntryInfo>& out) const {
  out.clear();
  if (surely_absent(p)) return;
  scan([&](const LostEntryInfo& info) {
    if (info.pattern == p) out.push_back(info);
    return true;
  });
}

std::vector<LostEntryInfo> LostBuffer::entries_for_source(NodeId s) const {
  return collect([s](const LostEntryInfo& e) { return e.source == s; });
}

std::vector<LostEntryInfo> LostBuffer::all_entries() const {
  return collect([](const LostEntryInfo&) { return true; });
}

std::vector<Pattern> LostBuffer::patterns_with_losses() const {
  // The summary already holds the distinct patterns in ascending order —
  // no walk over order_, no sort.
  std::vector<Pattern> out;
  out.reserve(patterns_with_losses_count());
  pattern_mask_.for_each([&out](Pattern p) { out.push_back(p); });
  return out;
}

Pattern LostBuffer::pattern_with_losses_at(std::size_t k) const {
  return pattern_mask_.nth(k);
}

std::vector<NodeId> LostBuffer::oldest_sources(
    std::size_t max_sources, const std::function<bool(NodeId)>& pred) const {
  std::vector<NodeId> out;
  scan([&](const LostEntryInfo& info) {  // oldest first
    const NodeId s = info.source;
    if (std::find(out.begin(), out.end(), s) != out.end()) return true;
    if (!pred(s)) return true;
    out.push_back(s);
    return out.size() < max_sources;
  });
  return out;
}

std::vector<NodeId> LostBuffer::sources_with_losses() const {
  std::vector<NodeId> out;
  out.reserve(by_key_.size());
  scan([&out](const LostEntryInfo& info) {
    out.push_back(info.source);
    return true;
  });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace epicast
