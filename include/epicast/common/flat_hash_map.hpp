// epicast — the open-addressed hash table behind per-event keyed state.
//
// Every event crossing a dispatcher is indexed in the β buffer by id and by
// (source, pattern, seq), and is checked against the loss detector and the
// Lost buffer; every pull digest probes the β index once per wanted entry;
// every delivery is checked against the oracles' published, offered and
// delivered sets and counted in the delivery tracker. FlatHashMap serves all
// of these, the sparse seen-set and the daemon's stream marks, with one
// layout:
//   * one flat array of {key, value} slots, power-of-two sized, probed
//     linearly from the key's home slot: a lookup reads consecutive memory
//     and allocates nothing;
//   * a reserved key value marks a free slot (KeyTraits::empty()), so there
//     are no per-entry nodes and no control bytes;
//   * erase shifts the rest of the probe cluster back over the hole
//     (backward-shift deletion), so insert/evict churn at full β leaves no
//     tombstones and probe lengths stay those of a freshly built table;
//   * the array is allocated on the first insert (kInitialSlots) and
//     doubles when an insert would pass 7/8 load, so a table is sized by
//     its content and an empty one owns no memory.
//
// KeyTraits supplies `static K empty()` (a key value that is never
// inserted) and `static std::uint64_t hash(const K&)`. The table indexes by
// the hash's low bits, so the hash must mix every input bit into them
// (hash_mix below). Values must be default-constructible and movable. A
// value pointer from find() or try_emplace() stays valid until the next
// insert, erase or clear. A set is a map to NoValue (FlatHashSet), whose
// slots hold the key alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "epicast/common/assert.hpp"
#include "epicast/common/ids.hpp"

namespace epicast {

/// splitmix64 finalizer: every input bit reaches the low bits a
/// power-of-two table indexes by.
[[nodiscard]] constexpr std::uint64_t hash_mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Key traits for 64-bit keys; ~0 is the free-slot marker.
struct U64Key {
  static constexpr std::uint64_t empty() { return ~std::uint64_t{0}; }
  static constexpr std::uint64_t hash(std::uint64_t key) {
    return hash_mix(key);
  }
};

/// Key traits for event ids; (invalid node, 0) is the free-slot marker —
/// no event is published by the invalid node.
struct EventIdKey {
  static constexpr EventId empty() { return EventId{NodeId::invalid(), 0}; }
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
  /// Bytes of the slot array: what the table really owns.
  [[nodiscard]] std::size_t memory_bytes() const {
    return slots_.capacity() * sizeof(Slot);
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
    EPICAST_ASSERT(!(key == KeyTraits::empty()));
    if (slots_.empty()) grow();
    std::size_t i = probe(key);
    if (slots_[i].key == key) return {&slots_[i].value, false};
    if ((size_ + 1) * 8 > slots_.size() * 7) {
      grow();
      i = probe(key);
    }
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

  /// Removes every entry; the slot array keeps its size.
  void clear() {
    for (Slot& s : slots_) s = Slot{};
    size_ = 0;
  }

  /// Calls fn(key, value) for every entry, in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (!(s.key == KeyTraits::empty())) fn(s.key, s.value);
    }
  }

 private:
  struct Slot {
    K key = KeyTraits::empty();
    [[no_unique_address]] V value{};
  };
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  [[nodiscard]] std::size_t home(const K& key) const {
    return static_cast<std::size_t>(KeyTraits::hash(key)) &
           (slots_.size() - 1);
  }

  /// First slot from the key's home that holds `key` or is free. The load
  /// bound guarantees a free slot, so the walk ends.
  [[nodiscard]] std::size_t probe(const K& key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(key);
    while (!(slots_[i].key == key) && !(slots_[i].key == KeyTraits::empty())) {
      i = (i + 1) & mask;
    }
    return i;
  }

  [[nodiscard]] std::size_t locate(const K& key) const {
    if (size_ == 0) return kAbsent;
    const std::size_t i = probe(key);
    return slots_[i].key == KeyTraits::empty() ? kAbsent : i;
  }

  /// Backward-shift deletion: walks the cluster after the hole and moves
  /// back every entry whose home does not lie cyclically in (hole, j], so
  /// each remaining key stays reachable from its home without tombstones.
  void erase_slot(std::size_t hole) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = (hole + 1) & mask;
         !(slots_[j].key == KeyTraits::empty()); j = (j + 1) & mask) {
      if (((j - home(slots_[j].key)) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

  void grow() {
    std::vector<Slot> old(slots_.empty() ? kInitialSlots : slots_.size() * 2);
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (Slot& s : old) {
      if (s.key == KeyTraits::empty()) continue;
      std::size_t i = home(s.key);
      while (!(slots_[i].key == KeyTraits::empty())) i = (i + 1) & mask;
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

/// The value of a FlatHashMap used as a set: it takes no slot space.
struct NoValue {};

/// An open-addressed set: try_emplace(key).second is "newly inserted".
template <typename K, typename KeyTraits>
using FlatHashSet = FlatHashMap<K, NoValue, KeyTraits>;

}  // namespace epicast
