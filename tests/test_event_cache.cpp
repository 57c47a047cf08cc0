// Unit tests for the retransmission buffer: capacity, eviction policies,
// id and (source, pattern, seq) lookup, the per-pattern digest index, and
// which of those indexes each protocol's cache keeps.
#include "epicast/gossip/event_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <utility>

#include "gossip_harness.hpp"

namespace epicast {
namespace {

EventPtr ev(std::uint32_t source, std::uint64_t seq,
            std::vector<PatternSeq> patterns) {
  return std::make_shared<EventData>(EventId{NodeId{source}, seq},
                                     std::move(patterns), 64, SimTime::zero());
}

TEST(EventCache, InsertAndGetById) {
  EventCache cache(4, CachePolicy::Fifo, Rng{1});
  auto e = ev(0, 1, {{Pattern{1}, SeqNo{1}}});
  EXPECT_TRUE(cache.insert(e));
  EXPECT_FALSE(cache.insert(e));  // duplicate
  EXPECT_TRUE(cache.contains(e->id()));
  EXPECT_EQ(cache.get(e->id()), e);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(EventCache, MissingLookupsCountMisses) {
  EventCache cache(4, CachePolicy::Fifo, Rng{1});
  EXPECT_EQ(cache.get(EventId{NodeId{9}, 9}), nullptr);
  EXPECT_EQ(cache.find(NodeId{9}, Pattern{1}, SeqNo{1}), nullptr);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(EventCache, FindBySourcePatternSeq) {
  EventCache cache(4, CachePolicy::Fifo, Rng{1});
  auto e = ev(3, 1, {{Pattern{5}, SeqNo{7}}, {Pattern{9}, SeqNo{2}}});
  cache.insert(e);
  EXPECT_EQ(cache.find(NodeId{3}, Pattern{5}, SeqNo{7}), e);
  EXPECT_EQ(cache.find(NodeId{3}, Pattern{9}, SeqNo{2}), e);
  EXPECT_EQ(cache.find(NodeId{3}, Pattern{5}, SeqNo{8}), nullptr);
  EXPECT_EQ(cache.find(NodeId{4}, Pattern{5}, SeqNo{7}), nullptr);
}

TEST(EventCache, FifoEvictsOldestFirst) {
  EventCache cache(3, CachePolicy::Fifo, Rng{1});
  auto e1 = ev(0, 1, {{Pattern{1}, SeqNo{1}}});
  auto e2 = ev(0, 2, {{Pattern{1}, SeqNo{2}}});
  auto e3 = ev(0, 3, {{Pattern{1}, SeqNo{3}}});
  auto e4 = ev(0, 4, {{Pattern{1}, SeqNo{4}}});
  cache.insert(e1);
  cache.insert(e2);
  cache.insert(e3);
  (void)cache.get(e1->id());  // access does not protect FIFO entries
  cache.insert(e4);
  EXPECT_FALSE(cache.contains(e1->id()));
  EXPECT_TRUE(cache.contains(e2->id()));
  EXPECT_TRUE(cache.contains(e4->id()));
  EXPECT_EQ(cache.stats().evictions, 1u);
  // Secondary index is purged with the eviction.
  EXPECT_EQ(cache.find(NodeId{0}, Pattern{1}, SeqNo{1}), nullptr);
}

TEST(EventCache, LruKeepsRecentlyAccessed) {
  EventCache cache(3, CachePolicy::Lru, Rng{1});
  auto e1 = ev(0, 1, {{Pattern{1}, SeqNo{1}}});
  auto e2 = ev(0, 2, {{Pattern{1}, SeqNo{2}}});
  auto e3 = ev(0, 3, {{Pattern{1}, SeqNo{3}}});
  auto e4 = ev(0, 4, {{Pattern{1}, SeqNo{4}}});
  cache.insert(e1);
  cache.insert(e2);
  cache.insert(e3);
  (void)cache.get(e1->id());  // refresh e1 → e2 becomes the LRU victim
  cache.insert(e4);
  EXPECT_TRUE(cache.contains(e1->id()));
  EXPECT_FALSE(cache.contains(e2->id()));
}

TEST(EventCache, RandomEvictionKeepsCapacityAndConsistency) {
  EventCache cache(16, CachePolicy::Random, Rng{42});
  std::vector<EventPtr> events;
  for (std::uint64_t i = 0; i < 200; ++i) {
    auto e = ev(1, i, {{Pattern{static_cast<std::uint32_t>(i % 5)},
                        SeqNo{i + 1}}});
    events.push_back(e);
    cache.insert(e);
    ASSERT_LE(cache.size(), 16u);
  }
  EXPECT_EQ(cache.size(), 16u);
  // Every retained event is findable both ways; evicted ones by neither.
  int retained = 0;
  for (const auto& e : events) {
    const bool by_id = cache.get(e->id()) != nullptr;
    const auto& ps = e->patterns()[0];
    const bool by_sp =
        cache.find(NodeId{1}, ps.pattern, ps.seq) != nullptr;
    ASSERT_EQ(by_id, by_sp);
    retained += by_id ? 1 : 0;
  }
  EXPECT_EQ(retained, 16);
}

TEST(EventCache, IdsMatchingFiltersByPattern) {
  EventCache cache(10, CachePolicy::Fifo, Rng{1});
  cache.keep_pattern_index();
  auto e1 = ev(0, 1, {{Pattern{1}, SeqNo{1}}});
  auto e2 = ev(0, 2, {{Pattern{2}, SeqNo{1}}});
  auto e3 = ev(0, 3, {{Pattern{1}, SeqNo{2}}, {Pattern{2}, SeqNo{2}}});
  cache.insert(e1);
  cache.insert(e2);
  cache.insert(e3);
  const auto ids1 = cache.ids_matching(Pattern{1}, 0);
  EXPECT_EQ(ids1, (std::vector<EventId>{e1->id(), e3->id()}));
  const auto ids2 = cache.ids_matching(Pattern{2}, 0);
  EXPECT_EQ(ids2, (std::vector<EventId>{e2->id(), e3->id()}));
  EXPECT_TRUE(cache.ids_matching(Pattern{3}, 0).empty());
}

TEST(EventCache, IdsMatchingDropsEvictedEntries) {
  EventCache cache(2, CachePolicy::Fifo, Rng{1});
  cache.keep_pattern_index();
  auto e1 = ev(0, 1, {{Pattern{1}, SeqNo{1}}});
  auto e2 = ev(0, 2, {{Pattern{1}, SeqNo{2}}});
  auto e3 = ev(0, 3, {{Pattern{1}, SeqNo{3}}});
  cache.insert(e1);
  cache.insert(e2);
  cache.insert(e3);  // evicts e1
  const auto ids = cache.ids_matching(Pattern{1}, 0);
  EXPECT_EQ(ids, (std::vector<EventId>{e2->id(), e3->id()}));
}

TEST(EventCache, IdsMatchingHonoursCapKeepingNewest) {
  EventCache cache(10, CachePolicy::Fifo, Rng{1});
  cache.keep_pattern_index();
  std::vector<EventPtr> events;
  for (std::uint64_t i = 0; i < 6; ++i) {
    auto e = ev(0, i, {{Pattern{1}, SeqNo{i + 1}}});
    events.push_back(e);
    cache.insert(e);
  }
  const auto ids = cache.ids_matching(Pattern{1}, 2);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], events[4]->id());
  EXPECT_EQ(ids[1], events[5]->id());
}

class CachePolicySweep : public ::testing::TestWithParam<CachePolicy> {};

TEST_P(CachePolicySweep, NeverExceedsCapacityAndStaysConsistent) {
  EventCache cache(32, GetParam(), Rng{7});
  cache.keep_pattern_index();
  Rng rng(99);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    auto e = ev(static_cast<std::uint32_t>(rng.next_below(4)), i,
                {{Pattern{static_cast<std::uint32_t>(rng.next_below(8))},
                  SeqNo{i + 1}}});
    cache.insert(e);
    ASSERT_LE(cache.size(), 32u);
    // Index and store agree on a random probe.
    const auto probe = cache.ids_matching(
        Pattern{static_cast<std::uint32_t>(rng.next_below(8))}, 0);
    for (const EventId& id : probe) ASSERT_TRUE(cache.contains(id));
  }
  EXPECT_EQ(cache.stats().evictions, cache.stats().insertions - 32);
}

INSTANTIATE_TEST_SUITE_P(Policies, CachePolicySweep,
                         ::testing::Values(CachePolicy::Fifo, CachePolicy::Lru,
                                           CachePolicy::Random));

TEST_P(CachePolicySweep, IdsMatchingIntoAgreesWithAllocatingVariant) {
  EventCache a(16, GetParam(), Rng{5});
  EventCache b(16, GetParam(), Rng{5});
  a.keep_pattern_index();
  b.keep_pattern_index();
  Rng rng(123);
  std::vector<EventId> scratch;
  for (std::uint64_t i = 0; i < 400; ++i) {
    auto e = ev(static_cast<std::uint32_t>(rng.next_below(3)), i,
                {{Pattern{static_cast<std::uint32_t>(rng.next_below(6))},
                  SeqNo{i + 1}}});
    a.insert(e);
    b.insert(e);
    const Pattern probe{static_cast<std::uint32_t>(rng.next_below(6))};
    const std::size_t cap = rng.next_below(4);  // include cap=0 (= all)
    // ids_matching() may compact the bucket, so query twin caches with
    // identical history rather than the same cache twice.
    b.ids_matching_into(probe, cap, scratch);
    ASSERT_EQ(scratch, a.ids_matching(probe, cap));
  }
}

TEST(EventCache, PatternIndexStaysTightUnderFifoChurn) {
  // The eager head purge keeps the per-pattern index at O(live entries)
  // under FIFO eviction: every victim's ids sit at its buckets' fronts.
  EventCache cache(8, CachePolicy::Fifo, Rng{1});
  cache.keep_pattern_index();
  for (std::uint64_t i = 0; i < 1000; ++i) {
    cache.insert(ev(0, i,
                    {{Pattern{static_cast<std::uint32_t>(i % 2)},
                      SeqNo{i + 1}}}));
    ASSERT_LE(cache.pattern_index_entries(), cache.size());
  }
  EXPECT_EQ(cache.pattern_index_entries(), 8u);
}

TEST(EventCache, FifoDigestNeedsNoLivenessFiltering) {
  // Interleave two patterns so evictions hit buckets the query never
  // touches; the FIFO digest must still be exactly the live ids.
  EventCache cache(4, CachePolicy::Fifo, Rng{1});
  cache.keep_pattern_index();
  std::vector<EventPtr> events;
  for (std::uint64_t i = 0; i < 12; ++i) {
    auto e = ev(0, i,
                {{Pattern{static_cast<std::uint32_t>(i % 3)}, SeqNo{i + 1}}});
    events.push_back(e);
    cache.insert(e);
  }
  // Live ids are the newest 4 insertions: seqs 8..11 → patterns 2,0,1,2.
  EXPECT_EQ(cache.ids_matching(Pattern{0}, 0),
            (std::vector<EventId>{events[9]->id()}));
  EXPECT_EQ(cache.ids_matching(Pattern{2}, 0),
            (std::vector<EventId>{events[8]->id(), events[11]->id()}));
}

TEST(EventCache, LruRefreshSurvivesLongChurn) {
  // Pin one event by touching it before every insert; the flat-slot LRU
  // list must keep it resident across many evictions.
  EventCache cache(4, CachePolicy::Lru, Rng{1});
  auto pinned = ev(9, 0, {{Pattern{1}, SeqNo{1}}});
  cache.insert(pinned);
  for (std::uint64_t i = 1; i <= 100; ++i) {
    ASSERT_EQ(cache.get(pinned->id()), pinned);
    cache.insert(ev(0, i, {{Pattern{1}, SeqNo{i + 1}}}));
  }
  EXPECT_TRUE(cache.contains(pinned->id()));
  EXPECT_EQ(cache.size(), 4u);
}

TEST(EventCache, SlotRecyclingPreservesLookups) {
  // Heavy insert/evict churn recycles slots; spot-check both lookup paths
  // for the survivors after every batch.
  EventCache cache(6, CachePolicy::Fifo, Rng{1});
  std::vector<EventPtr> events;
  for (std::uint64_t i = 0; i < 300; ++i) {
    auto e = ev(static_cast<std::uint32_t>(i % 2), i,
                {{Pattern{2}, SeqNo{i + 1}}});
    events.push_back(e);
    cache.insert(e);
    if (i < 6) continue;
    for (std::uint64_t back = 0; back < 6; ++back) {
      const auto& live = events[i - back];
      ASSERT_EQ(cache.get(live->id()), live);
      ASSERT_EQ(cache.find(live->source(), Pattern{2},
                           live->patterns()[0].seq),
                live);
    }
    ASSERT_FALSE(cache.contains(events[i - 6]->id()));
  }
}

/// Naive model of the cache: the cached events in eviction order (front =
/// next FIFO/LRU victim), each with its insertion stamp, plus the Random
/// policy's swap-pop sampling pool driven by the same RNG stream. Every
/// query is a linear scan.
class NaiveCache {
 public:
  NaiveCache(std::size_t capacity, CachePolicy policy, Rng rng)
      : capacity_(capacity), policy_(policy), rng_(rng) {}

  bool insert(const EventPtr& e) {
    if (locate(e->id()) != order_.end()) return false;
    while (order_.size() >= capacity_) evict();
    order_.push_back(Entry{e, next_stamp_++});
    if (policy_ == CachePolicy::Random) pool_.push_back(e->id());
    return true;
  }
  EventPtr get(const EventId& id) { return touch(locate(id)); }
  EventPtr find(NodeId source, Pattern pattern, SeqNo seq) {
    return touch(std::find_if(order_.begin(), order_.end(),
                              [&](const Entry& en) {
                                if (en.event->source() != source) return false;
                                for (const PatternSeq& ps :
                                     en.event->patterns()) {
                                  if (ps.pattern == pattern && ps.seq == seq) {
                                    return true;
                                  }
                                }
                                return false;
                              }));
  }
  /// Cached ids matching `pattern` in insertion order, newest `max` kept.
  std::vector<EventId> ids_matching(Pattern pattern, std::size_t max) const {
    std::map<std::uint64_t, EventId> by_stamp;
    for (const Entry& en : order_) {
      for (const PatternSeq& ps : en.event->patterns()) {
        if (ps.pattern == pattern) by_stamp.emplace(en.stamp, en.event->id());
      }
    }
    std::vector<EventId> out;
    for (const auto& [stamp, id] : by_stamp) out.push_back(id);
    if (max != 0 && out.size() > max) {
      out.erase(out.begin(), out.end() - static_cast<std::ptrdiff_t>(max));
    }
    return out;
  }
  [[nodiscard]] bool contains(const EventId& id) const {
    return std::any_of(order_.begin(), order_.end(),
                       [&](const Entry& en) { return en.event->id() == id; });
  }
  [[nodiscard]] std::size_t size() const { return order_.size(); }

 private:
  struct Entry {
    EventPtr event;
    std::uint64_t stamp;
  };
  std::list<Entry>::iterator locate(const EventId& id) {
    return std::find_if(order_.begin(), order_.end(), [&](const Entry& en) {
      return en.event->id() == id;
    });
  }
  EventPtr touch(std::list<Entry>::iterator it) {
    if (it == order_.end()) return nullptr;
    EventPtr e = it->event;
    if (policy_ == CachePolicy::Lru) order_.splice(order_.end(), order_, it);
    return e;
  }
  void evict() {
    auto victim = order_.begin();
    if (policy_ == CachePolicy::Random) {
      const std::size_t pos = rng_.next_below(pool_.size());
      victim = locate(pool_[pos]);
      pool_[pos] = pool_.back();
      pool_.pop_back();
    }
    order_.erase(victim);
  }

  std::size_t capacity_;
  CachePolicy policy_;
  Rng rng_;
  std::list<Entry> order_;
  std::vector<EventId> pool_;
  std::uint64_t next_stamp_ = 0;
};

TEST_P(CachePolicySweep, LookupsAgreeWithNaiveModelAfterEvictions) {
  // Random inserts (fresh events and re-inserts of cached ones), id and
  // (source, pattern, seq) lookups — hits refresh LRU recency — and
  // per-pattern digests, compared with the naive model after every step.
  // The first (source, pattern, seq) lookup comes only after many
  // evictions, so the index it builds from the cached events must answer
  // like one kept from the start.
  constexpr std::size_t kCapacity = 24;
  constexpr std::uint32_t kSources = 5;
  constexpr std::uint32_t kPatterns = 7;
  constexpr int kFirstFindStep = 1000;
  EventCache cache(kCapacity, GetParam(), Rng{31});
  cache.keep_pattern_index();
  NaiveCache model(kCapacity, GetParam(), Rng{31});
  std::uint64_t evictions_before_first_find = 0;
  Rng rng(2024);
  std::vector<EventPtr> published;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> next_seq;
  std::vector<std::uint64_t> next_id(kSources, 0);
  for (int step = 0; step < 3000; ++step) {
    const std::uint64_t op = rng.next_below(10);
    if (op < 4 || published.empty()) {
      // A fresh event matching one to three patterns, with per-(source,
      // pattern) sequence numbers as a real source assigns them.
      const auto src = static_cast<std::uint32_t>(rng.next_below(kSources));
      std::vector<PatternSeq> patterns;
      const std::uint64_t count = 1 + rng.next_below(3);
      for (std::uint64_t i = 0; i < count; ++i) {
        const Pattern p{static_cast<std::uint32_t>(rng.next_below(kPatterns))};
        if (std::any_of(patterns.begin(), patterns.end(),
                        [p](const PatternSeq& ps) { return ps.pattern == p; }))
          continue;
        patterns.push_back({p, SeqNo{++next_seq[{src, p.value()}]}});
      }
      auto e = ev(src, next_id[src]++, std::move(patterns));
      published.push_back(e);
      ASSERT_EQ(cache.insert(e), model.insert(e));
    } else {
      const EventPtr& e = published[rng.next_below(published.size())];
      if (op == 4) {
        // Re-insert: a no-op while cached. Evicted events stay out, since
        // a digest index may still hold their stale ids.
        if (model.contains(e->id())) {
          ASSERT_FALSE(cache.insert(e));
        }
      } else if (op < 7 || (op < 9 && step < kFirstFindStep)) {
        ASSERT_EQ(cache.get(e->id()), model.get(e->id()));
      } else if (op < 9) {
        if (evictions_before_first_find == 0) {
          evictions_before_first_find = cache.stats().evictions;
        }
        const PatternSeq& ps =
            e->patterns()[rng.next_below(e->patterns().size())];
        ASSERT_EQ(cache.find(e->source(), ps.pattern, ps.seq),
                  model.find(e->source(), ps.pattern, ps.seq));
      } else {
        const Pattern p{static_cast<std::uint32_t>(rng.next_below(kPatterns))};
        const std::size_t max = rng.next_below(4);
        ASSERT_EQ(cache.ids_matching(p, max), model.ids_matching(p, max))
            << "step " << step;
      }
    }
    ASSERT_EQ(cache.size(), model.size());
  }
  EXPECT_GT(evictions_before_first_find, 10 * kCapacity);
  // Final sweep over every event ever published, without touching recency.
  for (const EventPtr& e : published) {
    ASSERT_EQ(cache.contains(e->id()), model.contains(e->id()));
  }
  for (std::uint32_t p = 0; p < kPatterns; ++p) {
    ASSERT_EQ(cache.ids_matching(Pattern{p}, 0),
              model.ids_matching(Pattern{p}, 0));
  }
}

TEST(EventCache, IndexesAreBuiltOnlyForTheirReader) {
  EventCache cache(8, CachePolicy::Fifo, Rng{1});
  for (std::uint64_t i = 0; i < 20; ++i) {
    cache.insert(ev(0, i, {{Pattern{1}, SeqNo{i + 1}}}));
  }
  const std::size_t id_index_only = cache.memory_bytes();
  EXPECT_EQ(cache.pattern_index_entries(), 0u);
  // The first find() indexes the cached events, evicted ones excluded.
  EXPECT_EQ(cache.find(NodeId{0}, Pattern{1}, SeqNo{20})->id(),
            (EventId{NodeId{0}, 19}));
  EXPECT_EQ(cache.find(NodeId{0}, Pattern{1}, SeqNo{12}), nullptr);
  EXPECT_GT(cache.memory_bytes(), id_index_only);
  cache.insert(ev(0, 20, {{Pattern{1}, SeqNo{21}}}));
  EXPECT_EQ(cache.find(NodeId{0}, Pattern{1}, SeqNo{13}), nullptr);
  EXPECT_NE(cache.find(NodeId{0}, Pattern{1}, SeqNo{21}), nullptr);
}

TEST(EventCacheDeath, IdsMatchingNeedsTheOptIn) {
  EventCache cache(4, CachePolicy::Fifo, Rng{1});
  cache.insert(ev(0, 0, {{Pattern{1}, SeqNo{1}}}));
  EXPECT_DEATH((void)cache.ids_matching(Pattern{1}, 0), "keep_pattern_index");
  EXPECT_DEATH(cache.keep_pattern_index(), "first insert");
}

/// Lossy traffic through a 4-node line under each algorithm: only the push
/// protocol, the one reader of digests by pattern, keeps that index.
class ProtocolCacheIndexes : public ::testing::TestWithParam<Algorithm> {};

TEST_P(ProtocolCacheIndexes, OnlyPushKeepsThePerPatternIndex) {
  testing::GossipHarness h(4, GetParam());
  h.subscribe_and_settle({{0, 1}, {1, 2}, {2, 1}, {3, 1}, {3, 2}});
  h.start_recovery();
  Rng rng(5);
  for (int i = 0; i < 60; ++i) {
    const auto publisher = static_cast<std::uint32_t>(rng.next_below(4));
    const EventPtr e = h.net().node(NodeId{publisher}).publish(
        {Pattern{1 + static_cast<std::uint32_t>(rng.next_below(2))}});
    if (i % 4 == 1) h.drop_event_on_link(NodeId{1}, NodeId{2}, e->id());
    h.run_for(0.05);
  }
  h.run_for(1.0);
  const bool push = GetParam() == Algorithm::Push;
  std::size_t cached = 0;
  for (std::uint32_t n = 0; n < 4; ++n) {
    const EventCache& cache = h.protocol(n)->cache();
    cached += cache.size();
    if (push) {
      EXPECT_EQ(cache.pattern_index_entries(), cache.size()) << "node " << n;
    } else {
      EXPECT_EQ(cache.pattern_index_entries(), 0u) << "node " << n;
    }
  }
  EXPECT_GT(cached, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, ProtocolCacheIndexes,
    ::testing::Values(Algorithm::Push, Algorithm::SubscriberPull,
                      Algorithm::PublisherPull, Algorithm::CombinedPull,
                      Algorithm::RandomPull));

}  // namespace
}  // namespace epicast
