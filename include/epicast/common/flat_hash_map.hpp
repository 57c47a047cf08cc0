// epicast — the open-addressed hash table behind per-event keyed state.
//
// Every event a β buffer caches is indexed by id in its runtime's event
// registry; every event crossing a dispatcher is checked against the loss
// detector and the Lost buffer, and advances the route and link state of
// the nodes it crosses; every pull digest probes the registry's (source,
// pattern, seq) index once per wanted entry, and nearly every such probe
// misses; every delivery is counted in the delivery tracker.
// FlatHashMap serves all of these, the sparse seen-set, the dispatcher's
// publish counters and the daemon's stream marks, with one layout:
//   * one flat array of {key, value} slots, power-of-two sized, probed
//     linearly from the key's home slot: a lookup reads consecutive memory
//     and allocates nothing;
//   * beside it one tag byte per slot: 0 marks a free slot, any other
//     value is 8 bits of the key's hash that the home index does not use.
//     A probe walks the tags and compares the full key only where the tag
//     matches, so a miss reads no slot at all (4,096 tags are 4 KB, where
//     4,096 24-byte slots are 96 KB), and no key value is reserved;
//   * erase shifts the rest of the probe cluster back over the hole
//     (backward-shift deletion; a tag moves with its slot), so
//     insert/evict churn at full β leaves no tombstones and probe lengths
//     stay those of a freshly built table;
//   * the arrays are allocated on the first insert (kInitialSlots) and
//     double when an insert would pass 7/8 load, so a table is sized by
//     its content and an empty one owns no memory.
//
// KeyTraits supplies `static std::uint64_t hash(const K&)`. The table
// indexes by the hash's low bits and tags by its top byte, so the hash
// must mix every input bit into both (hash_mix below). Keys must be
// default-constructible and equality-comparable; values must be
// default-constructible and movable. A value pointer from find() or
// try_emplace() stays valid until the next insert, erase or clear. A set
// is a map to NoValue (FlatHashSet), whose slots hold the key alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "epicast/common/ids.hpp"

namespace epicast {

/// splitmix64 finalizer: every input bit reaches the low bits a
/// power-of-two table indexes by and the top byte it tags by.
[[nodiscard]] constexpr std::uint64_t hash_mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Key traits for 64-bit keys.
struct U64Key {
  static constexpr std::uint64_t hash(std::uint64_t key) {
    return hash_mix(key);
  }
};

/// Key traits for 32-bit keys (event-registry entries).
struct U32Key {
  static constexpr std::uint64_t hash(std::uint32_t key) {
    return hash_mix(key);
  }
};

/// Key traits for node ids (route and link state keyed by peer).
struct NodeIdKey {
  static constexpr std::uint64_t hash(NodeId id) {
    return hash_mix(id.value());
  }
};

/// Key traits for patterns (per-pattern counters and digest indexes).
struct PatternKey {
  static constexpr std::uint64_t hash(Pattern p) { return hash_mix(p.value()); }
};

/// Key traits for event ids.
struct EventIdKey {
  static constexpr std::uint64_t hash(const EventId& id) {
    return hash_mix(static_cast<std::uint64_t>(id.source.value()) *
                        0x9e3779b97f4a7c15ULL +
                    id.source_seq);
  }
};

template <typename K, typename V, typename KeyTraits>
class FlatHashMap {
 public:
  static constexpr std::size_t kInitialSlots = 8;  // power of two

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Slot count: 0 until the first insert, then a power of two.
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  /// Bytes of the slot and tag arrays: what the table really owns.
  [[nodiscard]] std::size_t memory_bytes() const {
    return slots_.capacity() * sizeof(Slot) + tags_.capacity();
  }

  [[nodiscard]] V* find(const K& key) {
    const std::size_t i = locate(key);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }
  [[nodiscard]] const V* find(const K& key) const {
    const std::size_t i = locate(key);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }
  [[nodiscard]] bool contains(const K& key) const {
    return locate(key) != kAbsent;
  }

  /// Stores `value` under `key` unless the key is already present. Returns
  /// the stored value and whether this call inserted it.
  std::pair<V*, bool> try_emplace(const K& key, V value = V{}) {
    if (slots_.empty()) grow();
    const std::uint64_t h = KeyTraits::hash(key);
    std::size_t i = probe(key, h);
    if (tags_[i] != kFree) return {&slots_[i].value, false};
    if ((size_ + 1) * 8 > slots_.size() * 7) {
      grow();
      i = probe(key, h);
    }
    tags_[i] = tag_of(h);
    slots_[i].key = key;
    slots_[i].value = std::move(value);
    ++size_;
    return {&slots_[i].value, true};
  }

  /// The value under `key`, value-initialized first if absent.
  V& operator[](const K& key) { return *try_emplace(key).first; }

  /// Removes `key`. Returns true if it was present.
  bool erase(const K& key) {
    const std::size_t i = locate(key);
    if (i == kAbsent) return false;
    erase_slot(i);
    return true;
  }

  /// Removes `key` only while it maps to `value`. Returns true if removed.
  bool erase_if_mapped_to(const K& key, const V& value) {
    const std::size_t i = locate(key);
    if (i == kAbsent || !(slots_[i].value == value)) return false;
    erase_slot(i);
    return true;
  }

  /// Removes every entry; the slot array keeps its size.
  void clear() {
    for (std::size_t i = 0; i < tags_.size(); ++i) {
      if (tags_[i] == kFree) continue;
      tags_[i] = kFree;
      slots_[i] = Slot{};
    }
    size_ = 0;
  }

  /// Calls fn(key, value) for every entry, in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < tags_.size(); ++i) {
      if (tags_[i] != kFree) fn(slots_[i].key, slots_[i].value);
    }
  }

 private:
  struct Slot {
    K key{};
    [[no_unique_address]] V value{};
  };
  static constexpr std::size_t kAbsent = ~std::size_t{0};
  static constexpr std::uint8_t kFree = 0;

  /// The hash's top byte, which no home index below 2^56 slots uses, with
  /// 0 (free) folded onto 1.
  [[nodiscard]] static constexpr std::uint8_t tag_of(std::uint64_t h) {
    const auto tag = static_cast<std::uint8_t>(h >> 56);
    return tag == kFree ? 1 : tag;
  }

  [[nodiscard]] std::size_t home(std::uint64_t h) const {
    return static_cast<std::size_t>(h) & (slots_.size() - 1);
  }

  /// First slot from the key's home that holds `key` or is free. Only a
  /// slot whose tag matches is compared in full, so a miss reads tags
  /// alone. The load bound guarantees a free slot, so the walk ends.
  [[nodiscard]] std::size_t probe(const K& key, std::uint64_t h) const {
    const std::size_t mask = slots_.size() - 1;
    const std::uint8_t tag = tag_of(h);
    std::size_t i = home(h);
    for (; tags_[i] != kFree; i = (i + 1) & mask) {
      if (tags_[i] == tag && slots_[i].key == key) break;
    }
    return i;
  }

  [[nodiscard]] std::size_t locate(const K& key) const {
    if (size_ == 0) return kAbsent;
    const std::size_t i = probe(key, KeyTraits::hash(key));
    return tags_[i] == kFree ? kAbsent : i;
  }

  /// Backward-shift deletion: walks the cluster after the hole and moves
  /// back every entry (slot and tag) whose home does not lie cyclically in
  /// (hole, j], so each remaining key stays reachable from its home
  /// without tombstones.
  void erase_slot(std::size_t hole) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; tags_[j] != kFree;
         j = (j + 1) & mask) {
      const std::size_t j_home = home(KeyTraits::hash(slots_[j].key));
      if (((j - j_home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = std::move(slots_[j]);
        tags_[hole] = tags_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    tags_[hole] = kFree;
    --size_;
  }

  void grow() {
    const std::size_t n = slots_.empty() ? kInitialSlots : slots_.size() * 2;
    std::vector<Slot> old_slots = std::exchange(slots_, std::vector<Slot>(n));
    std::vector<std::uint8_t> old_tags =
        std::exchange(tags_, std::vector<std::uint8_t>(n, kFree));
    const std::size_t mask = n - 1;
    for (std::size_t k = 0; k < old_tags.size(); ++k) {
      if (old_tags[k] == kFree) continue;
      std::size_t i = home(KeyTraits::hash(old_slots[k].key));
      while (tags_[i] != kFree) i = (i + 1) & mask;
      slots_[i] = std::move(old_slots[k]);
      tags_[i] = old_tags[k];
    }
  }

  std::vector<Slot> slots_;
  /// One byte per slot: kFree, or tag_of() the key's hash.
  std::vector<std::uint8_t> tags_;
  std::size_t size_ = 0;
};

/// The value of a FlatHashMap used as a set: it takes no slot space.
struct NoValue {};

/// An open-addressed set: try_emplace(key).second is "newly inserted".
template <typename K, typename KeyTraits>
using FlatHashSet = FlatHashMap<K, NoValue, KeyTraits>;

}  // namespace epicast
