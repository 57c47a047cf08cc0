// Unit and property tests for the width-dynamic pattern bitset: set/clear/
// test, ascending iteration order, nth() select, set algebra, and growth
// beyond the inline two words — all checked against a std::set<Pattern>
// reference implementation under random workloads, since the hot paths rely
// on bit-for-bit agreement with the sorted vectors the bitset replaced.
#include "epicast/common/pattern_set.hpp"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "epicast/common/rng.hpp"

namespace epicast {
namespace {

std::vector<Pattern> members(const PatternSet& s) {
  std::vector<Pattern> out;
  s.for_each([&out](Pattern p) { out.push_back(p); });
  return out;
}

TEST(PatternSet, StartsEmpty) {
  PatternSet s;
  EXPECT_TRUE(s.none());
  EXPECT_FALSE(s.any());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_FALSE(s.test(Pattern{0}));
  EXPECT_TRUE(members(s).empty());
  EXPECT_EQ(s.capacity(), PatternSet::kInlineCapacity);
  EXPECT_EQ(s.memory_bytes(), 0u);
}

TEST(PatternSet, SetClearTestRoundTrip) {
  PatternSet s;
  EXPECT_TRUE(s.set(Pattern{5}));
  EXPECT_FALSE(s.set(Pattern{5}));  // already present
  EXPECT_TRUE(s.test(Pattern{5}));
  EXPECT_EQ(s.count(), 1u);
  EXPECT_TRUE(s.clear(Pattern{5}));
  EXPECT_FALSE(s.clear(Pattern{5}));  // already absent
  EXPECT_TRUE(s.none());
}

TEST(PatternSet, WordBoundaryPatterns) {
  // Bits 63/64 straddle the two inline words; 127 is the last inline bit.
  PatternSet s;
  for (std::uint32_t v : {0u, 63u, 64u, 127u}) {
    EXPECT_TRUE(s.set(Pattern{v}));
  }
  EXPECT_EQ(s.count(), 4u);
  EXPECT_EQ(s.memory_bytes(), 0u);  // still inline
  const auto m = members(s);
  ASSERT_EQ(m.size(), 4u);
  EXPECT_EQ(m[0], Pattern{0});
  EXPECT_EQ(m[1], Pattern{63});
  EXPECT_EQ(m[2], Pattern{64});
  EXPECT_EQ(m[3], Pattern{127});
  for (std::size_t k = 0; k < m.size(); ++k) EXPECT_EQ(s.nth(k), m[k]);
}

TEST(PatternSet, TestBeyondWidthIsFalse) {
  PatternSet s;
  s.set(Pattern{3});
  EXPECT_FALSE(s.test(Pattern{PatternSet::kInlineCapacity}));
  EXPECT_FALSE(s.test(Pattern{1u << 20}));
  EXPECT_FALSE(s.clear(Pattern{PatternSet::kInlineCapacity + 9}));
}

TEST(PatternSet, GrowsBeyondInlineOnSet) {
  PatternSet s;
  s.set(Pattern{5});
  EXPECT_TRUE(s.set(Pattern{300}));
  EXPECT_GT(s.capacity(), 300u);
  EXPECT_GT(s.memory_bytes(), 0u);
  EXPECT_TRUE(s.test(Pattern{5}));
  EXPECT_TRUE(s.test(Pattern{300}));
  EXPECT_EQ(s.count(), 2u);
  EXPECT_EQ(members(s), (std::vector<Pattern>{Pattern{5}, Pattern{300}}));
  EXPECT_EQ(s.nth(0), Pattern{5});
  EXPECT_EQ(s.nth(1), Pattern{300});
}

TEST(PatternSet, SetAllMatchesPerMemberSetWidthIncluded) {
  // Bulk installs must leave the footprint per-pattern set() calls leave:
  // same members, same width, from inline and heap starting points.
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    PatternSet src;
    const std::uint64_t k = rng.next_below(6);
    for (std::uint64_t i = 0; i < k; ++i) {
      src.set(Pattern{static_cast<std::uint32_t>(rng.next_below(2000))});
    }
    const bool presized = rng.next_below(2) == 1;
    PatternSet bulk = presized ? PatternSet(300) : PatternSet{};
    PatternSet each = presized ? PatternSet(300) : PatternSet{};
    bulk.set(Pattern{7});
    each.set(Pattern{7});
    bulk.set_all(src);
    src.for_each([&](Pattern p) { each.set(p); });
    EXPECT_TRUE(bulk == each);
    EXPECT_EQ(bulk.capacity(), each.capacity()) << "trial " << trial;
    EXPECT_EQ(bulk.memory_bytes(), each.memory_bytes());
  }
}

TEST(PatternSet, IsFourWords) {
  // Two inline words, the word pointer and the width: routing tables keep
  // one set per neighbour, so each word here counts at 10⁴ nodes.
  EXPECT_EQ(sizeof(PatternSet), 4 * sizeof(std::uint64_t));
}

TEST(PatternSet, ReservePresizesWithoutMembers) {
  PatternSet s(1000);
  EXPECT_GE(s.capacity(), 1000u);
  EXPECT_TRUE(s.none());
  EXPECT_TRUE(s.set(Pattern{999}));
  EXPECT_EQ(s.count(), 1u);
}

TEST(PatternSet, GrowthPastTheReservationKeepsMembers) {
  PatternSet s(5000);
  EXPECT_GE(s.capacity(), 5000u);
  s.set(Pattern{4999});
  const std::size_t before = s.memory_bytes();
  s.set(Pattern{20000});
  EXPECT_GT(s.memory_bytes(), before);
  EXPECT_TRUE(s.test(Pattern{4999}));
  EXPECT_TRUE(s.test(Pattern{20000}));
}

TEST(PatternSet, CopyAndMovePreserveMembersAcrossWidths) {
  PatternSet wide;
  wide.set(Pattern{2});
  wide.set(Pattern{500});

  PatternSet copy(wide);
  EXPECT_EQ(copy, wide);
  EXPECT_EQ(members(copy), members(wide));

  PatternSet assigned;
  assigned.set(Pattern{70});
  assigned = wide;
  EXPECT_EQ(assigned, wide);

  PatternSet moved(std::move(copy));
  EXPECT_EQ(moved, wide);
  PatternSet move_assigned;
  move_assigned = std::move(moved);
  EXPECT_EQ(move_assigned, wide);
}

TEST(PatternSet, FullInlineSet) {
  PatternSet s;
  for (std::uint32_t v = 0; v < PatternSet::kInlineCapacity; ++v)
    s.set(Pattern{v});
  EXPECT_EQ(s.count(), static_cast<std::size_t>(PatternSet::kInlineCapacity));
  for (std::uint32_t v = 0; v < PatternSet::kInlineCapacity; ++v) {
    EXPECT_TRUE(s.test(Pattern{v}));
    EXPECT_EQ(s.nth(v), Pattern{v});
  }
}

TEST(PatternSet, AlgebraMatchesSetOperations) {
  PatternSet a, b;
  for (std::uint32_t v : {1u, 5u, 64u, 100u}) a.set(Pattern{v});
  for (std::uint32_t v : {5u, 7u, 100u, 127u}) b.set(Pattern{v});

  const PatternSet u = a | b;
  const PatternSet i = a & b;
  EXPECT_EQ(u.count(), 6u);
  EXPECT_EQ(i.count(), 2u);
  EXPECT_TRUE(i.test(Pattern{5}));
  EXPECT_TRUE(i.test(Pattern{100}));
  EXPECT_TRUE(a.intersects(b));

  PatternSet disjoint;
  disjoint.set(Pattern{2});
  EXPECT_FALSE(a.intersects(disjoint));
  EXPECT_TRUE((a & disjoint).none());
}

TEST(PatternSet, AlgebraAcrossDifferentWidths) {
  PatternSet narrow, wide;
  narrow.set(Pattern{3});
  wide.set(Pattern{3});
  wide.set(Pattern{400});

  EXPECT_TRUE(narrow.intersects(wide));
  EXPECT_TRUE(wide.intersects(narrow));

  PatternSet u = narrow;
  u |= wide;
  EXPECT_EQ(members(u), (std::vector<Pattern>{Pattern{3}, Pattern{400}}));

  PatternSet i = wide;
  i &= narrow;  // wider &= narrower must drop bits beyond the narrow width
  EXPECT_EQ(members(i), (std::vector<Pattern>{Pattern{3}}));
}

TEST(PatternSet, EqualityIsValueEqualityAndWidthInsensitive) {
  PatternSet a, b;
  a.set(Pattern{9});
  b.set(Pattern{9});
  EXPECT_EQ(a, b);
  b.set(Pattern{64});
  EXPECT_NE(a, b);

  // Widen b without adding members beyond a's: still equal.
  PatternSet c;
  c.set(Pattern{9});
  c.set(Pattern{64});
  c.set(Pattern{999});
  c.clear(Pattern{999});
  EXPECT_EQ(b, c);
  EXPECT_EQ(c, b);
}

// Property test: a long random stream of set/clear operations keeps the
// bitset in lockstep with std::set<Pattern> — membership, count, ascending
// iteration, and nth() select at every step. Runs once confined to the
// inline words and once over a universe that forces multi-word growth.
void run_reference_property(std::uint32_t universe, std::uint64_t seed) {
  Rng rng(seed);
  PatternSet s;
  std::set<Pattern> ref;

  for (int step = 0; step < 5000; ++step) {
    const Pattern p{static_cast<std::uint32_t>(rng.next_below(universe))};
    if (rng.chance(0.6)) {
      EXPECT_EQ(s.set(p), ref.insert(p).second);
    } else {
      EXPECT_EQ(s.clear(p), ref.erase(p) > 0);
    }
    ASSERT_EQ(s.count(), ref.size());
    ASSERT_EQ(s.any(), !ref.empty());

    if (step % 50 != 0) continue;  // full scans are O(|ref|); sample them
    const std::vector<Pattern> expect(ref.begin(), ref.end());
    ASSERT_EQ(members(s), expect);
    for (std::size_t k = 0; k < expect.size(); ++k)
      ASSERT_EQ(s.nth(k), expect[k]);
    for (std::uint32_t v = 0; v < universe; ++v)
      ASSERT_EQ(s.test(Pattern{v}), ref.contains(Pattern{v}));
  }
}

TEST(PatternSet, PropertyAgainstReferenceSetInline) {
  run_reference_property(PatternSet::kInlineCapacity, 42);
}

TEST(PatternSet, PropertyAgainstReferenceSetMultiWord) {
  run_reference_property(700, 43);
}

// The union/intersection operators must agree with element-wise reference
// results for random operands, including operands of different widths.
TEST(PatternSet, PropertyAlgebraAgainstReference) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    // Odd trials push one operand beyond the inline words.
    const std::uint32_t ua = PatternSet::kInlineCapacity;
    const std::uint32_t ub = (trial % 2) != 0 ? 600 : ua;
    PatternSet a, b;
    std::set<Pattern> ra, rb;
    for (int i = 0; i < 12; ++i) {
      const Pattern pa{static_cast<std::uint32_t>(rng.next_below(ua))};
      const Pattern pb{static_cast<std::uint32_t>(rng.next_below(ub))};
      a.set(pa);
      ra.insert(pa);
      b.set(pb);
      rb.insert(pb);
    }
    std::set<Pattern> runion = ra;
    runion.insert(rb.begin(), rb.end());
    std::set<Pattern> rinter;
    for (Pattern p : ra)
      if (rb.contains(p)) rinter.insert(p);

    EXPECT_EQ(members(a | b),
              std::vector<Pattern>(runion.begin(), runion.end()));
    EXPECT_EQ(members(a & b),
              std::vector<Pattern>(rinter.begin(), rinter.end()));
    EXPECT_EQ(a.intersects(b), !rinter.empty());
    EXPECT_EQ(b.intersects(a), !rinter.empty());
  }
}

}  // namespace
}  // namespace epicast
