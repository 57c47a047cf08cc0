// epicast — one index of the cached events per runtime.
//
// Every dispatcher's β buffer caches the events "for which it is either the
// publisher or a subscriber" (§IV-A), so on the paper's defaults an event
// sits in about 7.6 of the 100 buffers at once. Indexing it in each of
// them would insert, and later erase, one id key and one (source, pattern,
// seq) key per pattern per holder. The registry indexes it once for the
// whole runtime instead:
//   * an entry holds the event and a count of the caches holding it;
//     entry indexes are recycled, so they stay dense over the live entries
//     and a cache can keep one membership bit per entry;
//   * EventId → entry is always kept;
//   * (source, pattern, seq) → entry is built from the live entries on the
//     first stream lookup by any cache and kept from then on. A map built
//     from the current contents answers exactly like one kept from the
//     start;
//   * when the last holder releases an entry, its id key is erased, and so
//     is each stream key that still names the entry (a key that a newer
//     entry with the same (source, pattern, seq) took over stays).
// Simulator and AsyncRuntime each own one (runtime::Runtime::
// event_registry()). The runtime is single-threaded, so the registry is
// unsynchronized; a cache on it must not outlive it, which the destructor
// checks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "epicast/common/flat_hash_map.hpp"
#include "epicast/common/ids.hpp"
#include "epicast/gossip/messages.hpp"
#include "epicast/pubsub/event.hpp"

namespace epicast {

class EventRegistry {
 public:
  /// "No entry".
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  EventRegistry() = default;
  ~EventRegistry();
  EventRegistry(const EventRegistry&) = delete;
  EventRegistry& operator=(const EventRegistry&) = delete;

  /// The entry registered under `id`, or kNone.
  [[nodiscard]] std::uint32_t find(const EventId& id) const {
    const std::uint32_t* entry = by_id_.find(id);
    return entry != nullptr ? *entry : kNone;
  }

  /// The entry whose event the source tagged with (pattern, seq), or
  /// kNone. The first call builds the stream index.
  [[nodiscard]] std::uint32_t find(NodeId source, Pattern pattern, SeqNo seq);

  /// Registers `event` with one holder. Precondition: its id is not
  /// registered.
  std::uint32_t add(const EventPtr& event);

  /// One more holder of a live entry.
  void retain(std::uint32_t entry) { ++entries_[entry].holders; }

  /// One holder fewer; the last one unregisters the entry and frees its
  /// index for reuse.
  void release(std::uint32_t entry);

  [[nodiscard]] const EventPtr& event(std::uint32_t entry) const {
    return entries_[entry].event;
  }
  /// Holders of the entry; 0 for a free index.
  [[nodiscard]] std::uint32_t holders(std::uint32_t entry) const {
    return entries_[entry].holders;
  }

  /// Live entries.
  [[nodiscard]] std::size_t size() const { return by_id_.size(); }

  /// Bytes of the entry array, the free list and both indexes (the events
  /// themselves excluded, as for the caches).
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  struct Entry {
    EventPtr event;
    std::uint32_t holders = 0;
  };

  void index_streams(std::uint32_t entry);

  std::vector<Entry> entries_;
  std::vector<std::uint32_t> free_;
  FlatHashMap<EventId, std::uint32_t, EventIdKey> by_id_;
  bool stream_index_ = false;
  FlatHashMap<LostEntryInfo, std::uint32_t, LostEntryKey> by_stream_;
};

}  // namespace epicast
