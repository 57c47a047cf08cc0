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

bool LostBuffer::add(const LostEntryInfo& entry, SimTime now) {
  if (by_key_.contains(entry)) return false;
  if (by_key_.size() >= capacity_) {
    // Overflow: the oldest entry is the least likely to still be cached
    // anywhere, so it is the right one to abandon.
    note_removed(order_.front().info.pattern);
    by_key_.erase(order_.front().info);
    order_.pop_front();
    ++stats_.overflowed;
  }
  order_.push_back(Node{entry, now});
  by_key_.try_emplace(entry, std::prev(order_.end()));
  note_added(entry.pattern);
  ++stats_.added;
  return true;
}

bool LostBuffer::remove(const LostEntryInfo& entry) {
  // Fast reject via the pattern summary: this runs once per pattern of
  // every received event and almost always misses.
  if (surely_absent(entry.pattern)) return false;
  const std::list<Node>::iterator* node = by_key_.find(entry);
  if (node == nullptr) return false;
  order_.erase(*node);
  by_key_.erase(entry);
  note_removed(entry.pattern);
  ++stats_.recovered;
  return true;
}

std::size_t LostBuffer::expire(SimTime now) {
  std::size_t n = 0;
  while (!order_.empty() && now - order_.front().detected_at > ttl_) {
    note_removed(order_.front().info.pattern);
    by_key_.erase(order_.front().info);
    order_.pop_front();
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
  by_key_.clear();
  pattern_mask_ = PatternSet{};
  std::fill(pattern_counts_.begin(), pattern_counts_.end(), 0);
}

template <typename Pred>
std::vector<LostEntryInfo> LostBuffer::collect(Pred&& pred,
                                               std::size_t max_entries) const {
  std::vector<LostEntryInfo> out;
  for (const Node& node : order_) {
    if (!pred(node.info)) continue;
    out.push_back(node.info);
    if (max_entries != 0 && out.size() >= max_entries) break;
  }
  return out;
}

std::vector<LostEntryInfo> LostBuffer::entries_for_pattern(
    Pattern p, std::size_t max_entries) const {
  std::vector<LostEntryInfo> out;
  entries_for_pattern_into(p, max_entries, out);
  return out;
}

void LostBuffer::entries_for_pattern_into(
    Pattern p, std::size_t max_entries,
    std::vector<LostEntryInfo>& out) const {
  out.clear();
  if (surely_absent(p)) return;
  for (const Node& node : order_) {
    if (node.info.pattern != p) continue;
    out.push_back(node.info);
    if (max_entries != 0 && out.size() >= max_entries) break;
  }
}

std::vector<LostEntryInfo> LostBuffer::entries_for_source(
    NodeId s, std::size_t max_entries) const {
  return collect([s](const LostEntryInfo& e) { return e.source == s; },
                 max_entries);
}

std::vector<LostEntryInfo> LostBuffer::all_entries(
    std::size_t max_entries) const {
  return collect([](const LostEntryInfo&) { return true; }, max_entries);
}

std::vector<Pattern> LostBuffer::patterns_with_losses() const {
  // The summary already holds the distinct patterns in ascending order —
  // no walk over order_, no sort (the old implementation rescanned the
  // whole list every gossip round).
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
  for (const Node& node : order_) {  // order_ is oldest first
    const NodeId s = node.info.source;
    if (std::find(out.begin(), out.end(), s) != out.end()) continue;
    if (!pred(s)) continue;
    out.push_back(s);
    if (out.size() >= max_sources) break;
  }
  return out;
}

std::vector<NodeId> LostBuffer::sources_with_losses() const {
  std::vector<NodeId> out;
  for (const Node& node : order_) out.push_back(node.info.source);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace epicast
