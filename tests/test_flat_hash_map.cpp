// Property tests for the open-addressed FlatHashMap, checked against
// std::unordered_map. Deliberately weak hashes pile keys onto a few home
// slots, or onto one tag byte, so long clusters, wrap-around at the end of
// the slot array, backward-shift erase across a cluster and full-key
// compares behind a matching tag all run on every sequence.
#include "epicast/common/flat_hash_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>

#include "epicast/common/rng.hpp"
#include "epicast/gossip/messages.hpp"

namespace epicast {
namespace {

/// Every key homes on one of four slots at the start of the array.
struct ClusteringKey {
  static constexpr std::uint64_t hash(std::uint64_t k) { return k % 4; }
};

/// Every key homes on one of the last three slots, so each cluster wraps
/// around to slot 0.
struct WrappingKey {
  static constexpr std::uint64_t hash(std::uint64_t k) {
    return ~std::uint64_t{0} - k % 3;
  }
};

/// Every key carries the same tag byte and homes on one of three slots;
/// odd keys have a zero top byte, which the table folds onto the same
/// tag as an explicit 1.
struct SharedTagAndHomeKey {
  static constexpr std::uint64_t hash(std::uint64_t k) {
    return (k % 2 == 0 ? std::uint64_t{1} << 56 : 0) | k % 3;
  }
};

/// Every key carries the same tag byte; homes are spread by the mixer.
struct SharedTagKey {
  static constexpr std::uint64_t hash(std::uint64_t k) {
    return (std::uint64_t{0xAB} << 56) | (hash_mix(k) >> 8);
  }
};

template <typename Map>
void expect_matches(const Map& map,
                    const std::unordered_map<std::uint64_t, std::string>& ref,
                    std::uint64_t key_range) {
  ASSERT_EQ(map.size(), ref.size());
  ASSERT_EQ(map.empty(), ref.empty());
  // Load bound: an insert never pushes the table past 7/8.
  ASSERT_LE(map.size() * 8, map.capacity() * 7);
  for (std::uint64_t k = 0; k < key_range; ++k) {
    const std::string* got = map.find(k);
    const auto want = ref.find(k);
    if (want == ref.end()) {
      ASSERT_EQ(got, nullptr) << "key " << k;
      ASSERT_FALSE(map.contains(k));
    } else {
      ASSERT_NE(got, nullptr) << "key " << k;
      ASSERT_EQ(*got, want->second) << "key " << k;
    }
  }
  std::size_t visited = 0;
  map.for_each([&](std::uint64_t k, const std::string& v) {
    ++visited;
    const auto want = ref.find(k);
    ASSERT_NE(want, ref.end());
    ASSERT_EQ(v, want->second);
  });
  ASSERT_EQ(visited, ref.size());
}

/// Random insert / overwrite / find / erase / clear sequence over a small
/// key range (so erases hit and clusters stay dense), compared after every
/// operation. String values make every move and reset observable.
template <typename Traits>
void run_against_reference(std::uint64_t seed) {
  constexpr std::uint64_t kKeys = 96;
  Rng rng(seed);
  FlatHashMap<std::uint64_t, std::string, Traits> map;
  std::unordered_map<std::uint64_t, std::string> ref;
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t key = rng.next_below(kKeys);
    const std::uint64_t op = rng.next_below(100);
    if (op < 45) {
      std::string value = "v";
      value += std::to_string(step);
      const auto [slot, inserted] = map.try_emplace(key, value);
      const auto [it, ref_inserted] = ref.try_emplace(key, value);
      ASSERT_EQ(inserted, ref_inserted);
      ASSERT_EQ(*slot, it->second);
    } else if (op < 55) {
      map[key] += "+";
      ref[key] += "+";
    } else if (op < 95) {
      ASSERT_EQ(map.erase(key), ref.erase(key) == 1);
    } else if (op < 96) {
      map.clear();
      ref.clear();
    } else {
      ASSERT_EQ(map.contains(key), ref.contains(key));
    }
    expect_matches(map, ref, kKeys);
  }
}

TEST(FlatHashMap, ClusteredKeysAgreeWithUnorderedMap) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    run_against_reference<ClusteringKey>(seed);
  }
}

TEST(FlatHashMap, WrappingClustersAgreeWithUnorderedMap) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    run_against_reference<WrappingKey>(seed);
  }
}

TEST(FlatHashMap, KeysSharingTagAndHomeAgreeWithUnorderedMap) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    run_against_reference<SharedTagAndHomeKey>(seed);
  }
}

TEST(FlatHashMap, KeysSharingATagButNotAHomeAgreeWithUnorderedMap) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    run_against_reference<SharedTagKey>(seed);
  }
}

TEST(FlatHashMap, MixedHashAgreesWithUnorderedMap) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    run_against_reference<U64Key>(seed);
  }
}

TEST(FlatHashMap, EraseShiftsTheWrappedClusterBack) {
  // WrappingKey homes keys 0, 1, 2 on slots 7, 6, 5 of an 8-slot array;
  // keys 3..6 overflow past the end into slots 0..3. Erasing from the
  // cluster's head must shift the wrapped tail back so every survivor
  // stays reachable.
  FlatHashMap<std::uint64_t, std::string, WrappingKey> map;
  for (std::uint64_t k = 0; k < 7; ++k) map.try_emplace(k, std::to_string(k));
  ASSERT_EQ(map.capacity(), 8u);
  std::set<std::uint64_t> erased;
  for (std::uint64_t victim : {0u, 4u, 2u}) {
    ASSERT_TRUE(map.erase(victim));
    ASSERT_FALSE(map.erase(victim));
    erased.insert(victim);
    for (std::uint64_t k = 0; k < 7; ++k) {
      ASSERT_EQ(map.contains(k), !erased.contains(k))
          << "after erasing " << victim << ", key " << k;
      if (!erased.contains(k)) {
        ASSERT_EQ(*map.find(k), std::to_string(k));
      }
    }
  }
  map.try_emplace(10, "ten");
  EXPECT_EQ(*map.find(10), "ten");
  EXPECT_EQ(map.size(), 5u);
}

TEST(FlatHashMap, GrowsFromEmptyByDoublingPastSevenEighths) {
  using Map = FlatHashMap<std::uint64_t, std::uint64_t, U64Key>;
  Map map;
  EXPECT_EQ(map.capacity(), 0u);
  EXPECT_EQ(map.memory_bytes(), 0u);
  EXPECT_EQ(map.find(3), nullptr);
  EXPECT_FALSE(map.erase(3));
  // Seven entries fill the initial eight slots to exactly 7/8; looking up
  // or re-inserting an existing key there must not grow the table.
  for (std::uint64_t k = 0; k < 7; ++k) map[k] = k;
  ASSERT_EQ(map.capacity(), Map::kInitialSlots);
  EXPECT_FALSE(map.try_emplace(5, 0).second);
  EXPECT_EQ(map.capacity(), Map::kInitialSlots);
  std::size_t expected_capacity = Map::kInitialSlots;
  for (std::uint64_t k = 7; k < 1000; ++k) {
    map[k] = k * 3;
    if (map.size() * 8 > expected_capacity * 7) expected_capacity *= 2;
    ASSERT_EQ(map.capacity(), expected_capacity) << "after " << k + 1;
  }
  // One {key, value} slot and one tag byte per slot.
  EXPECT_EQ(map.memory_bytes(),
            expected_capacity * (2 * sizeof(std::uint64_t) + 1));
  for (std::uint64_t k = 7; k < 1000; ++k) ASSERT_EQ(*map.find(k), k * 3);
  // clear() keeps the slot array.
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.capacity(), expected_capacity);
  EXPECT_EQ(map.find(5), nullptr);
}

/// Inserts `special` among enough ordinary keys to grow the table twice,
/// then checks it is found, visited once, erased and re-inserted like any
/// other key.
template <typename K, typename Traits, typename MakeKey>
void expect_ordinary_key(const K& special, MakeKey make_key) {
  using Map = FlatHashMap<K, int, Traits>;
  Map map;
  ASSERT_FALSE(map.contains(special));
  ASSERT_TRUE(map.try_emplace(special, -1).second);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(map.try_emplace(make_key(i), i).second);
  }
  ASSERT_GT(map.capacity(), Map::kInitialSlots * 2);
  ASSERT_NE(map.find(special), nullptr);
  EXPECT_EQ(*map.find(special), -1);
  int visits = 0;
  map.for_each([&](const K& k, int v) {
    if (k == special) {
      ++visits;
      EXPECT_EQ(v, -1);
    }
  });
  EXPECT_EQ(visits, 1);
  EXPECT_FALSE(map.try_emplace(special, 7).second);
  EXPECT_TRUE(map.erase(special));
  EXPECT_FALSE(map.contains(special));
  EXPECT_FALSE(map.erase(special));
  EXPECT_EQ(map.size(), 40u);
  for (int i = 0; i < 40; ++i) ASSERT_EQ(*map.find(make_key(i)), i);
  map[special] = 5;
  EXPECT_EQ(*map.find(special), 5);
  EXPECT_EQ(map.size(), 41u);
}

TEST(FlatHashMap, FormerFreeSlotKeysAreOrdinaryKeys) {
  expect_ordinary_key<std::uint64_t, U64Key>(
      ~std::uint64_t{0}, [](int i) { return static_cast<std::uint64_t>(i); });
  expect_ordinary_key<EventId, EventIdKey>(
      EventId{NodeId::invalid(), 0}, [](int i) {
        return EventId{NodeId{static_cast<std::uint32_t>(i % 4)},
                       static_cast<std::uint64_t>(i)};
      });
  expect_ordinary_key<LostEntryInfo, LostEntryKey>(
      LostEntryInfo{NodeId::invalid(), Pattern{}, SeqNo{}}, [](int i) {
        return LostEntryInfo{NodeId{static_cast<std::uint32_t>(i % 3)},
                             Pattern{static_cast<std::uint32_t>(i % 5)},
                             SeqNo{static_cast<std::uint64_t>(i)}};
      });
}

}  // namespace
}  // namespace epicast
