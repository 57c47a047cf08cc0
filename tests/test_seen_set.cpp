// Tests for the per-source seen-id bitmap, checked against the
// std::unordered_set<EventId> it replaced.
#include "epicast/pubsub/seen_set.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "epicast/common/rng.hpp"

namespace epicast {
namespace {

TEST(SeenSet, InsertReportsNovelty) {
  SeenSet s;
  const EventId id{NodeId{3}, 17};
  EXPECT_FALSE(s.contains(id));
  EXPECT_TRUE(s.insert(id));
  EXPECT_TRUE(s.contains(id));
  EXPECT_FALSE(s.insert(id));
  EXPECT_EQ(s.size(), 1u);
}

TEST(SeenSet, SourcesAreIndependent) {
  SeenSet s;
  s.insert(EventId{NodeId{0}, 5});
  EXPECT_FALSE(s.contains(EventId{NodeId{1}, 5}));
  EXPECT_FALSE(s.contains(EventId{NodeId{0}, 4}));
  EXPECT_FALSE(s.contains(EventId{NodeId{0}, 6}));
}

TEST(SeenSet, WordBoundarySeqs) {
  SeenSet s;
  for (std::uint64_t seq : {0ull, 63ull, 64ull, 127ull, 128ull}) {
    EXPECT_TRUE(s.insert(EventId{NodeId{2}, seq}));
    EXPECT_TRUE(s.contains(EventId{NodeId{2}, seq}));
  }
  EXPECT_EQ(s.size(), 5u);
}

TEST(SeenSet, ContainsBeyondGrownRangeIsFalse) {
  SeenSet s;
  s.insert(EventId{NodeId{1}, 2});
  EXPECT_FALSE(s.contains(EventId{NodeId{1}, 1000}));  // row too short
  EXPECT_FALSE(s.contains(EventId{NodeId{9}, 0}));     // source never seen
}

void check_against_reference_set(SeenSet s) {
  Rng rng(11);
  std::unordered_set<EventId> ref;
  for (int step = 0; step < 20000; ++step) {
    const EventId id{NodeId{static_cast<std::uint32_t>(rng.next_below(16))},
                     rng.next_below(512)};
    if (rng.chance(0.5)) {
      ASSERT_EQ(s.insert(id), ref.insert(id).second);
    } else {
      ASSERT_EQ(s.contains(id), ref.contains(id));
    }
    ASSERT_EQ(s.size(), ref.size());
  }
  EXPECT_GT(s.memory_bytes(), 0u);
}

TEST(SeenSet, PropertyAgainstReferenceSet) {
  check_against_reference_set(SeenSet{});
}

TEST(SeenSet, SparseLayoutAgainstReferenceSet) {
  // A hinted source count past the limit selects the (source, seq-block)
  // hash table instead of per-source rows.
  check_against_reference_set(SeenSet{SeenSet::kDenseSourceLimit + 1});
}

}  // namespace
}  // namespace epicast
