#include "epicast/gossip/event_registry.hpp"

#include "epicast/common/assert.hpp"

namespace epicast {

EventRegistry::~EventRegistry() {
  EPICAST_ASSERT_MSG(by_id_.empty(),
                     "an event cache outlived the runtime it caches on");
}

std::uint32_t EventRegistry::add(const EventPtr& event) {
  std::uint32_t entry = static_cast<std::uint32_t>(entries_.size());
  if (!free_.empty()) {
    entry = free_.back();
    free_.pop_back();
  } else {
    entries_.emplace_back();
  }
  entries_[entry] = Entry{event, 1};
  const bool added = by_id_.try_emplace(event->id(), entry).second;
  EPICAST_ASSERT_MSG(added, "event registered twice");
  if (stream_index_) index_streams(entry);
  return entry;
}

void EventRegistry::index_streams(std::uint32_t entry) {
  const EventData& event = *entries_[entry].event;
  for (const PatternSeq& ps : event.patterns()) {
    by_stream_[LostEntryInfo{event.source(), ps.pattern, ps.seq}] = entry;
  }
}

void EventRegistry::release(std::uint32_t entry) {
  Entry& e = entries_[entry];
  EPICAST_ASSERT(e.holders > 0);
  if (--e.holders != 0) return;
  const EventData& event = *e.event;
  by_id_.erase(event.id());
  if (stream_index_) {
    for (const PatternSeq& ps : event.patterns()) {
      by_stream_.erase_if_mapped_to(
          LostEntryInfo{event.source(), ps.pattern, ps.seq}, entry);
    }
  }
  e.event.reset();
  free_.push_back(entry);
}

std::uint32_t EventRegistry::find(NodeId source, Pattern pattern, SeqNo seq) {
  if (!stream_index_) {
    // First reader: index what is registered now and keep it from here.
    stream_index_ = true;
    for (std::uint32_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].holders != 0) index_streams(i);
    }
  }
  const std::uint32_t* entry =
      by_stream_.find(LostEntryInfo{source, pattern, seq});
  return entry != nullptr ? *entry : kNone;
}

std::size_t EventRegistry::memory_bytes() const {
  return entries_.capacity() * sizeof(Entry) +
         free_.capacity() * sizeof(std::uint32_t) + by_id_.memory_bytes() +
         by_stream_.memory_bytes();
}

}  // namespace epicast
