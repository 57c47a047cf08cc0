// Unit tests for the Lost buffer: bookkeeping of missing events, TTL
// expiry, overflow, and the query surfaces the pull variants rely on, plus
// a model test of the flat layout against a std::list reference.
#include "epicast/gossip/lost_buffer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <vector>

#include "epicast/common/rng.hpp"

namespace epicast {
namespace {

LostEntryInfo entry(std::uint32_t src, std::uint32_t pat, std::uint64_t seq) {
  return LostEntryInfo{NodeId{src}, Pattern{pat}, SeqNo{seq}};
}

TEST(LostBuffer, AddRemoveContains) {
  LostBuffer buf(8, Duration::seconds(5.0));
  EXPECT_TRUE(buf.add(entry(0, 1, 1), SimTime::zero()));
  EXPECT_FALSE(buf.add(entry(0, 1, 1), SimTime::zero()));  // duplicate
  EXPECT_TRUE(buf.contains(entry(0, 1, 1)));
  EXPECT_TRUE(buf.remove(entry(0, 1, 1)));
  EXPECT_FALSE(buf.remove(entry(0, 1, 1)));
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.stats().added, 1u);
  EXPECT_EQ(buf.stats().recovered, 1u);
}

TEST(LostBuffer, ExpireDropsOnlyOldEntries) {
  LostBuffer buf(8, Duration::seconds(1.0));
  buf.add(entry(0, 1, 1), SimTime::seconds(0.0));
  buf.add(entry(0, 1, 2), SimTime::seconds(0.8));
  EXPECT_EQ(buf.expire(SimTime::seconds(1.5)), 1u);
  EXPECT_FALSE(buf.contains(entry(0, 1, 1)));
  EXPECT_TRUE(buf.contains(entry(0, 1, 2)));
  EXPECT_EQ(buf.stats().expired, 1u);
}

TEST(LostBuffer, OverflowEvictsOldest) {
  LostBuffer buf(2, Duration::seconds(5.0));
  buf.add(entry(0, 1, 1), SimTime::zero());
  buf.add(entry(0, 1, 2), SimTime::zero());
  buf.add(entry(0, 1, 3), SimTime::zero());
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_FALSE(buf.contains(entry(0, 1, 1)));
  EXPECT_EQ(buf.stats().overflowed, 1u);
}

TEST(LostBuffer, QueriesFilterAndPreserveAge) {
  LostBuffer buf(16, Duration::seconds(5.0));
  buf.add(entry(0, 1, 1), SimTime::zero());
  buf.add(entry(1, 2, 1), SimTime::zero());
  buf.add(entry(0, 2, 5), SimTime::zero());
  buf.add(entry(1, 1, 9), SimTime::zero());

  EXPECT_EQ(buf.entries_for_pattern(Pattern{1}, 0),
            (std::vector<LostEntryInfo>{entry(0, 1, 1), entry(1, 1, 9)}));
  EXPECT_EQ(buf.entries_for_source(NodeId{1}, 0),
            (std::vector<LostEntryInfo>{entry(1, 2, 1), entry(1, 1, 9)}));
  EXPECT_EQ(buf.entries_for_pattern(Pattern{1}, 1),
            (std::vector<LostEntryInfo>{entry(0, 1, 1)}));  // capped
  EXPECT_EQ(buf.all_entries(0).size(), 4u);
  EXPECT_EQ(buf.patterns_with_losses(),
            (std::vector<Pattern>{Pattern{1}, Pattern{2}}));
  EXPECT_EQ(buf.sources_with_losses(),
            (std::vector<NodeId>{NodeId{0}, NodeId{1}}));
}

TEST(LostBuffer, OldestSourcesOrdersByEntryAgeAndFilters) {
  LostBuffer buf(16, Duration::seconds(5.0));
  buf.add(entry(3, 1, 1), SimTime::seconds(0.1));
  buf.add(entry(1, 1, 1), SimTime::seconds(0.2));
  buf.add(entry(3, 1, 2), SimTime::seconds(0.3));
  buf.add(entry(2, 1, 1), SimTime::seconds(0.4));

  const auto all = buf.oldest_sources(10, [](NodeId) { return true; });
  EXPECT_EQ(all, (std::vector<NodeId>{NodeId{3}, NodeId{1}, NodeId{2}}));

  const auto capped = buf.oldest_sources(2, [](NodeId) { return true; });
  EXPECT_EQ(capped, (std::vector<NodeId>{NodeId{3}, NodeId{1}}));

  const auto filtered =
      buf.oldest_sources(10, [](NodeId n) { return n != NodeId{3}; });
  EXPECT_EQ(filtered, (std::vector<NodeId>{NodeId{1}, NodeId{2}}));
}

TEST(LostBuffer, RemoveThenReaddResetsAge) {
  LostBuffer buf(16, Duration::seconds(1.0));
  buf.add(entry(0, 1, 1), SimTime::seconds(0.0));
  buf.remove(entry(0, 1, 1));
  buf.add(entry(0, 1, 1), SimTime::seconds(0.9));
  EXPECT_EQ(buf.expire(SimTime::seconds(1.5)), 0u);
  EXPECT_TRUE(buf.contains(entry(0, 1, 1)));
}

/// The Lost buffer as a std::list of (entry, detection time), oldest
/// first; every operation and query is a linear walk.
class ListModel {
 public:
  ListModel(std::size_t capacity, Duration ttl)
      : capacity_(capacity), ttl_(ttl) {}

  bool add(const LostEntryInfo& e, SimTime now) {
    if (contains(e)) return false;
    if (order_.size() >= capacity_) {
      order_.pop_front();
      ++stats_.overflowed;
    }
    order_.push_back({e, now});
    ++stats_.added;
    return true;
  }
  bool remove(const LostEntryInfo& e) {
    const auto it = locate(e);
    if (it == order_.end()) return false;
    order_.erase(it);
    ++stats_.recovered;
    return true;
  }
  std::size_t expire(SimTime now) {
    std::size_t n = 0;
    while (!order_.empty() && now - order_.front().at > ttl_) {
      order_.pop_front();
      ++n;
    }
    stats_.expired += n;
    return n;
  }
  void clear() { order_.clear(); }
  [[nodiscard]] bool contains(const LostEntryInfo& e) const {
    return std::any_of(order_.begin(), order_.end(),
                       [&](const Item& i) { return i.info == e; });
  }
  template <typename Pred>
  [[nodiscard]] std::vector<LostEntryInfo> collect(Pred pred,
                                                   std::size_t max) const {
    std::vector<LostEntryInfo> out;
    for (const Item& i : order_) {
      if (!pred(i.info)) continue;
      out.push_back(i.info);
      if (max != 0 && out.size() >= max) break;
    }
    return out;
  }
  [[nodiscard]] std::vector<Pattern> patterns() const {
    std::vector<Pattern> out;
    for (const Item& i : order_) out.push_back(i.info.pattern);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }
  [[nodiscard]] std::vector<NodeId> sources() const {
    std::vector<NodeId> out;
    for (const Item& i : order_) out.push_back(i.info.source);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }
  /// Distinct sources by the age of their oldest entry, odd ids only.
  [[nodiscard]] std::vector<NodeId> oldest_odd_sources(std::size_t max) const {
    std::vector<NodeId> out;
    for (const Item& i : order_) {
      const NodeId s = i.info.source;
      if (s.value() % 2 == 0) continue;
      if (std::find(out.begin(), out.end(), s) != out.end()) continue;
      out.push_back(s);
      if (out.size() >= max) break;
    }
    return out;
  }
  [[nodiscard]] std::size_t size() const { return order_.size(); }
  [[nodiscard]] const LostBuffer::Stats& stats() const { return stats_; }
  [[nodiscard]] const LostEntryInfo& at(std::size_t k) const {
    return std::next(order_.begin(), static_cast<std::ptrdiff_t>(k))->info;
  }

 private:
  struct Item {
    LostEntryInfo info;
    SimTime at;
  };
  std::list<Item>::iterator locate(const LostEntryInfo& e) {
    return std::find_if(order_.begin(), order_.end(),
                        [&](const Item& i) { return i.info == e; });
  }

  std::size_t capacity_;
  Duration ttl_;
  std::list<Item> order_;
  LostBuffer::Stats stats_;
};

TEST(LostBufferModel, EveryQueryMatchesAListReferenceUnderChurn) {
  // Random add / remove / expire / clear steps over a small key space, so
  // overflow, removal from the middle and the front, expiry runs, and the
  // flat layout's trim and compaction all happen many times; after every
  // step each query must equal the reference.
  constexpr std::uint32_t kSources = 6;
  constexpr std::uint32_t kPatterns = 7;
  constexpr std::uint64_t kSeqs = 8;
  constexpr std::size_t kCapacity = 40;
  const Duration ttl = Duration::millis(60);
  LostBuffer buf(kCapacity, ttl);
  ListModel model(kCapacity, ttl);
  Rng rng(0x1057);
  SimTime now = SimTime::zero();
  const auto random_entry = [&rng] {
    return entry(static_cast<std::uint32_t>(rng.next_below(kSources)),
                 static_cast<std::uint32_t>(rng.next_below(kPatterns)),
                 1 + rng.next_below(kSeqs));
  };
  const auto odd = [](NodeId n) { return n.value() % 2 == 1; };
  std::vector<LostEntryInfo> scratch;
  for (int step = 0; step < 20000; ++step) {
    // Alternate phases: in one time runs and entries expire, in the other
    // it barely moves and adds overflow the buffer.
    const bool time_runs = (step / 1000) % 2 == 0;
    now = now + Duration::micros(static_cast<std::int64_t>(
                    rng.next_below(time_runs ? 2000 : 10)));
    const std::uint64_t op = rng.next_below(1000);
    if (op < 450) {
      const LostEntryInfo e = random_entry();
      ASSERT_EQ(buf.add(e, now), model.add(e, now)) << "step " << step;
    } else if (op < 650 && model.size() > 0) {
      // Remove a present entry: oldest, newest or anywhere between.
      const LostEntryInfo e = model.at(rng.next_below(model.size()));
      ASSERT_TRUE(buf.remove(e)) << "step " << step;
      ASSERT_TRUE(model.remove(e));
    } else if (op < 900) {
      const LostEntryInfo e = random_entry();
      ASSERT_EQ(buf.remove(e), model.remove(e)) << "step " << step;
    } else if (op < 998) {
      ASSERT_EQ(buf.expire(now), model.expire(now)) << "step " << step;
    } else {
      buf.clear();
      model.clear();
    }

    ASSERT_EQ(buf.size(), model.size()) << "step " << step;
    ASSERT_EQ(buf.empty(), model.size() == 0);
    const LostBuffer::Stats& got = buf.stats();
    const LostBuffer::Stats& want = model.stats();
    ASSERT_EQ(got.added, want.added);
    ASSERT_EQ(got.recovered, want.recovered);
    ASSERT_EQ(got.expired, want.expired);
    ASSERT_EQ(got.overflowed, want.overflowed);
    const std::size_t max = rng.next_below(4);  // 0 = all
    ASSERT_EQ(buf.all_entries(max),
              model.collect([](const LostEntryInfo&) { return true; }, max))
        << "step " << step;
    for (std::uint32_t p = 0; p < kPatterns; ++p) {
      const auto want_p = model.collect(
          [p](const LostEntryInfo& e) { return e.pattern == Pattern{p}; },
          max);
      ASSERT_EQ(buf.entries_for_pattern(Pattern{p}, max), want_p)
          << "step " << step << " pattern " << p;
      buf.entries_for_pattern_into(Pattern{p}, max, scratch);
      ASSERT_EQ(scratch, want_p);
    }
    for (std::uint32_t s = 0; s < kSources; ++s) {
      ASSERT_EQ(buf.entries_for_source(NodeId{s}, max),
                model.collect(
                    [s](const LostEntryInfo& e) { return e.source == NodeId{s}; },
                    max))
          << "step " << step << " source " << s;
    }
    const std::vector<Pattern> patterns = model.patterns();
    ASSERT_EQ(buf.patterns_with_losses(), patterns);
    ASSERT_EQ(buf.patterns_with_losses_count(), patterns.size());
    for (std::size_t k = 0; k < patterns.size(); ++k) {
      ASSERT_EQ(buf.pattern_with_losses_at(k), patterns[k]);
    }
    ASSERT_EQ(buf.sources_with_losses(), model.sources());
    ASSERT_EQ(buf.oldest_sources(2, odd), model.oldest_odd_sources(2));
    ASSERT_EQ(buf.oldest_sources(kSources, odd),
              model.oldest_odd_sources(kSources));
    if (step % 16 == 0) {
      for (std::uint32_t s = 0; s < kSources; ++s) {
        for (std::uint32_t p = 0; p < kPatterns; ++p) {
          for (std::uint64_t q = 1; q <= kSeqs; ++q) {
            ASSERT_EQ(buf.contains(entry(s, p, q)),
                      model.contains(entry(s, p, q)));
          }
        }
      }
    }
  }
  // The mix must have exercised every way out of the buffer.
  EXPECT_GT(buf.stats().overflowed, 500u);
  EXPECT_GT(buf.stats().recovered, 500u);
  EXPECT_GT(buf.stats().expired, 500u);
}

}  // namespace
}  // namespace epicast
