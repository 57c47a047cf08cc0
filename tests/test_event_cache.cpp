// Unit tests for the retransmission buffer: capacity, eviction policies,
// id and (source, pattern, seq) lookup, the per-pattern digest index, and
// which of those indexes each protocol's cache keeps.
#include "epicast/gossip/event_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <tuple>
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
  EventRegistry registry;
  EventCache cache(4, CachePolicy::Fifo, Rng{1}, registry);
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
  EventRegistry registry;
  EventCache cache(4, CachePolicy::Fifo, Rng{1}, registry);
  EXPECT_EQ(cache.get(EventId{NodeId{9}, 9}), nullptr);
  EXPECT_EQ(cache.find(NodeId{9}, Pattern{1}, SeqNo{1}), nullptr);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(EventCache, FindBySourcePatternSeq) {
  EventRegistry registry;
  EventCache cache(4, CachePolicy::Fifo, Rng{1}, registry);
  auto e = ev(3, 1, {{Pattern{5}, SeqNo{7}}, {Pattern{9}, SeqNo{2}}});
  cache.insert(e);
  EXPECT_EQ(cache.find(NodeId{3}, Pattern{5}, SeqNo{7}), e);
  EXPECT_EQ(cache.find(NodeId{3}, Pattern{9}, SeqNo{2}), e);
  EXPECT_EQ(cache.find(NodeId{3}, Pattern{5}, SeqNo{8}), nullptr);
  EXPECT_EQ(cache.find(NodeId{4}, Pattern{5}, SeqNo{7}), nullptr);
}

TEST(EventCache, FifoEvictsOldestFirst) {
  EventRegistry registry;
  EventCache cache(3, CachePolicy::Fifo, Rng{1}, registry);
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
  EventRegistry registry;
  EventCache cache(3, CachePolicy::Lru, Rng{1}, registry);
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
  EventRegistry registry;
  EventCache cache(16, CachePolicy::Random, Rng{42}, registry);
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
  EventRegistry registry;
  EventCache cache(10, CachePolicy::Fifo, Rng{1}, registry);
  cache.keep_pattern_index();
  auto e1 = ev(0, 1, {{Pattern{1}, SeqNo{1}}});
  auto e2 = ev(0, 2, {{Pattern{2}, SeqNo{1}}});
  auto e3 = ev(0, 3, {{Pattern{1}, SeqNo{2}}, {Pattern{2}, SeqNo{2}}});
  cache.insert(e1);
  cache.insert(e2);
  cache.insert(e3);
  const auto ids1 = cache.ids_matching(Pattern{1});
  EXPECT_EQ(ids1, (std::vector<EventId>{e1->id(), e3->id()}));
  const auto ids2 = cache.ids_matching(Pattern{2});
  EXPECT_EQ(ids2, (std::vector<EventId>{e2->id(), e3->id()}));
  EXPECT_TRUE(cache.ids_matching(Pattern{3}).empty());
}

TEST(EventCache, IdsMatchingDropsEvictedEntries) {
  EventRegistry registry;
  EventCache cache(2, CachePolicy::Fifo, Rng{1}, registry);
  cache.keep_pattern_index();
  auto e1 = ev(0, 1, {{Pattern{1}, SeqNo{1}}});
  auto e2 = ev(0, 2, {{Pattern{1}, SeqNo{2}}});
  auto e3 = ev(0, 3, {{Pattern{1}, SeqNo{3}}});
  cache.insert(e1);
  cache.insert(e2);
  cache.insert(e3);  // evicts e1
  const auto ids = cache.ids_matching(Pattern{1});
  EXPECT_EQ(ids, (std::vector<EventId>{e2->id(), e3->id()}));
}

TEST(EventCache, LruDigestListsAReinsertedEventOnce) {
  // An event evicted from the middle of a pattern queue and inserted again
  // leaves its old id behind; the digest lists it once, at its newest
  // insertion.
  EventRegistry registry;
  EventCache cache(3, CachePolicy::Lru, Rng{1}, registry);
  cache.keep_pattern_index();
  std::vector<EventPtr> e;  // a, b, c, d
  for (std::uint64_t i = 1; i <= 4; ++i) {
    e.push_back(ev(0, i, {{Pattern{1}, SeqNo{i}}}));
  }
  cache.insert(e[0]);
  cache.insert(e[1]);
  cache.insert(e[2]);
  ASSERT_EQ(cache.get(e[0]->id()), e[0]);  // a becomes the most recent
  cache.insert(e[3]);                      // d evicts b
  cache.insert(e[1]);                      // b again, evicting c
  EXPECT_EQ(cache.ids_matching(Pattern{1}),
            (std::vector<EventId>{e[0]->id(), e[3]->id(), e[1]->id()}));
}

TEST(EventCache, RandomDigestListsEachCachedEventOnce) {
  // Random eviction scatters victims through the queue; re-inserting them
  // must list each cached id once, in the order of its current insertion.
  EventRegistry registry;
  EventCache cache(4, CachePolicy::Random, Rng{3}, registry);
  cache.keep_pattern_index();
  std::vector<EventPtr> pool;
  for (std::uint64_t i = 0; i < 6; ++i) {
    pool.push_back(ev(0, i, {{Pattern{1}, SeqNo{i + 1}}}));
  }
  std::vector<EventId> inserted;  // each id once, at its latest insertion
  Rng rng(5);
  for (int step = 0; step < 200; ++step) {
    const EventPtr& e = pool[rng.next_below(pool.size())];
    if (cache.insert(e)) {
      inserted.erase(std::remove(inserted.begin(), inserted.end(), e->id()),
                     inserted.end());
      inserted.push_back(e->id());
    }
    std::vector<EventId> want;
    for (const EventId& id : inserted) {
      if (cache.contains(id)) want.push_back(id);
    }
    ASSERT_EQ(cache.ids_matching(Pattern{1}), want) << "step " << step;
  }
}

class CachePolicySweep : public ::testing::TestWithParam<CachePolicy> {};

TEST_P(CachePolicySweep, NeverExceedsCapacityAndStaysConsistent) {
  EventRegistry registry;
  EventCache cache(32, GetParam(), Rng{7}, registry);
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
        Pattern{static_cast<std::uint32_t>(rng.next_below(8))});
    for (const EventId& id : probe) ASSERT_TRUE(cache.contains(id));
  }
  EXPECT_EQ(cache.stats().evictions, cache.stats().insertions - 32);
}

INSTANTIATE_TEST_SUITE_P(Policies, CachePolicySweep,
                         ::testing::Values(CachePolicy::Fifo, CachePolicy::Lru,
                                           CachePolicy::Random));

TEST_P(CachePolicySweep, IdsMatchingIntoAgreesWithAllocatingVariant) {
  // Twin caches on one registry: each event has two holders.
  EventRegistry registry;
  EventCache a(16, GetParam(), Rng{5}, registry);
  EventCache b(16, GetParam(), Rng{5}, registry);
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
    // ids_matching() may compact the bucket, so query twin caches with
    // identical history rather than the same cache twice.
    b.ids_matching_into(probe, scratch);
    ASSERT_EQ(scratch, a.ids_matching(probe));
  }
}

TEST(EventCache, PatternIndexStaysTightUnderFifoChurn) {
  // The eager head purge keeps the per-pattern index at O(live entries)
  // under FIFO eviction: every victim's ids sit at its buckets' fronts.
  EventRegistry registry;
  EventCache cache(8, CachePolicy::Fifo, Rng{1}, registry);
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
  EventRegistry registry;
  EventCache cache(4, CachePolicy::Fifo, Rng{1}, registry);
  cache.keep_pattern_index();
  std::vector<EventPtr> events;
  for (std::uint64_t i = 0; i < 12; ++i) {
    auto e = ev(0, i,
                {{Pattern{static_cast<std::uint32_t>(i % 3)}, SeqNo{i + 1}}});
    events.push_back(e);
    cache.insert(e);
  }
  // Live ids are the newest 4 insertions: seqs 8..11 → patterns 2,0,1,2.
  EXPECT_EQ(cache.ids_matching(Pattern{0}),
            (std::vector<EventId>{events[9]->id()}));
  EXPECT_EQ(cache.ids_matching(Pattern{2}),
            (std::vector<EventId>{events[8]->id(), events[11]->id()}));
}

TEST(EventCache, LruRefreshSurvivesLongChurn) {
  // Pin one event by touching it before every insert; the flat-slot LRU
  // list must keep it resident across many evictions.
  EventRegistry registry;
  EventCache cache(4, CachePolicy::Lru, Rng{1}, registry);
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
  EventRegistry registry;
  EventCache cache(6, CachePolicy::Fifo, Rng{1}, registry);
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
  /// Cached ids matching `pattern` in insertion order.
  std::vector<EventId> ids_matching(Pattern pattern) const {
    std::map<std::uint64_t, EventId> by_stamp;
    for (const Entry& en : order_) {
      for (const PatternSeq& ps : en.event->patterns()) {
        if (ps.pattern == pattern) by_stamp.emplace(en.stamp, en.event->id());
      }
    }
    std::vector<EventId> out;
    for (const auto& [stamp, id] : by_stamp) out.push_back(id);
    return out;
  }
  [[nodiscard]] bool contains(const EventId& id) const {
    return std::any_of(order_.begin(), order_.end(),
                       [&](const Entry& en) { return en.event->id() == id; });
  }
  [[nodiscard]] std::size_t size() const { return order_.size(); }
  /// The cached events in eviction order, as snapshot_events() lists them.
  [[nodiscard]] std::vector<EventPtr> events() const {
    std::vector<EventPtr> out;
    for (const Entry& en : order_) out.push_back(en.event);
    return out;
  }
  void clear() {
    order_.clear();
    pool_.clear();
  }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

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
    if (it == order_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
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
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
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
  EventRegistry registry;
  EventCache cache(kCapacity, GetParam(), Rng{31}, registry);
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
        // Re-insert: a no-op while cached; an evicted event comes back as
        // the newest insertion.
        ASSERT_EQ(cache.insert(e), model.insert(e));
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
        ASSERT_EQ(cache.ids_matching(p), model.ids_matching(p))
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
    ASSERT_EQ(cache.ids_matching(Pattern{p}), model.ids_matching(Pattern{p}));
  }
}

/// K caches on one registry under one policy, driven by random operations
/// and checked after every step: each cache against its own naive model,
/// and the registry against the union of the models.
class SharedRegistry
    : public ::testing::TestWithParam<std::tuple<int, CachePolicy>> {};

TEST_P(SharedRegistry, CachesAndRegistryAgreeWithNaiveModels) {
  const int k = std::get<0>(GetParam());
  const CachePolicy policy = std::get<1>(GetParam());
  constexpr std::size_t kCapacity = 12;
  constexpr std::uint32_t kSources = 4;
  constexpr std::uint32_t kPatterns = 6;
  constexpr int kSteps = 2500;
  constexpr int kFirstFindStep = 600;
  EventRegistry registry;
  std::vector<std::unique_ptr<EventCache>> caches(k);
  std::vector<std::unique_ptr<NaiveCache>> models(k);
  std::uint64_t next_cache_seed = 100;
  const auto build = [&](int c) {
    const Rng rng{next_cache_seed++};
    caches[c] = std::make_unique<EventCache>(kCapacity, policy, rng, registry);
    caches[c]->keep_pattern_index();
    models[c] = std::make_unique<NaiveCache>(kCapacity, policy, rng);
  };
  for (int c = 0; c < k; ++c) build(c);

  // The registry's stream index, modelled: once a cache has asked for it,
  // a key names the newest registered event carrying it, until that event
  // is unregistered. Sources here also reuse (pattern, seq) pairs under
  // fresh ids, as a source restarted without its counters would, but only
  // once the index exists, so its initial build sees no duplicates.
  bool stream_index = false;
  std::map<LostEntryInfo, EventId> owner;
  std::map<EventId, int> holders;  // the union of the models, with counts
  const auto sync_holders = [&] {
    std::map<EventId, int> now;
    for (const auto& m : models) {
      for (const EventPtr& e : m->events()) ++now[e->id()];
    }
    if (stream_index) {
      for (const auto& [id, n] : holders) {  // unregistered events
        if (now.count(id) != 0) continue;
        for (auto it = owner.begin(); it != owner.end();) {
          it = it->second == id ? owner.erase(it) : std::next(it);
        }
      }
    }
    holders = std::move(now);
  };
  std::map<EventId, EventPtr> by_id;
  const auto note_registered = [&](const EventPtr& e) {
    if (!stream_index || holders.count(e->id()) != 0) return;
    for (const PatternSeq& ps : e->patterns()) {
      owner[LostEntryInfo{e->source(), ps.pattern, ps.seq}] = e->id();
    }
  };

  Rng rng(77 + static_cast<std::uint64_t>(k));
  std::vector<EventPtr> published;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> next_seq;
  std::vector<std::uint64_t> next_id(kSources, 0);
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const auto c =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(k)));
    EventCache& cache = *caches[c];
    NaiveCache& model = *models[c];
    const std::uint64_t op = rng.next_below(100);
    if (op < 35 || published.empty()) {
      // Insert: usually an event another cache may hold, else a fresh one.
      EventPtr e;
      if (!published.empty() && rng.next_below(3) != 0) {
        e = published[published.size() - 1 -
                      rng.next_below(std::min<std::size_t>(published.size(),
                                                           40))];
      } else {
        const auto src = static_cast<std::uint32_t>(rng.next_below(kSources));
        std::vector<PatternSeq> patterns;
        const EventPtr* twin = nullptr;
        if (stream_index && rng.next_below(4) == 0) {
          // Reuse a recent event's (pattern, seq) pairs under a new id.
          for (std::size_t back = 0; back < std::min<std::size_t>(
                                              published.size(), 30);
               ++back) {
            const EventPtr& cand = published[published.size() - 1 - back];
            if (cand->source() == NodeId{src}) {
              twin = &cand;
              break;
            }
          }
        }
        if (twin != nullptr) {
          patterns = (*twin)->patterns();
        } else {
          const std::uint64_t count = 1 + rng.next_below(3);
          for (std::uint64_t i = 0; i < count; ++i) {
            const Pattern p{
                static_cast<std::uint32_t>(rng.next_below(kPatterns))};
            if (std::any_of(patterns.begin(), patterns.end(),
                            [p](const PatternSeq& ps) {
                              return ps.pattern == p;
                            })) {
              continue;
            }
            patterns.push_back({p, SeqNo{++next_seq[{src, p.value()}]}});
          }
          std::sort(patterns.begin(), patterns.end());
        }
        e = ev(src, next_id[src]++, std::move(patterns));
        published.push_back(e);
        by_id[e->id()] = e;
      }
      // Evicted events come back too, as the newest insertion.
      if (model.contains(e->id())) {
        ASSERT_FALSE(cache.insert(e));
      } else {
        note_registered(e);
        ASSERT_TRUE(model.insert(e));
        ASSERT_TRUE(cache.insert(e));
      }
    } else if (op < 55) {
      const EventPtr& e = published[rng.next_below(published.size())];
      if (step < kFirstFindStep || rng.next_below(2) == 0) {
        ASSERT_EQ(cache.get(e->id()), model.get(e->id()));
      } else {
        ASSERT_EQ(cache.contains(e->id()), model.contains(e->id()));
      }
    } else if (op < 75) {
      if (step < kFirstFindStep) continue;
      if (!stream_index) {
        stream_index = true;
        for (const auto& [id, n] : holders) {
          for (const PatternSeq& ps : by_id[id]->patterns()) {
            owner[LostEntryInfo{id.source, ps.pattern, ps.seq}] = id;
          }
        }
      }
      const EventPtr& e = published[rng.next_below(published.size())];
      const PatternSeq& ps =
          e->patterns()[rng.next_below(e->patterns().size())];
      const LostEntryInfo key{e->source(), ps.pattern, ps.seq};
      const auto named = owner.find(key);
      // A key naming no event, or one this cache lacks, is a miss; the
      // model counts it through a lookup of an id no cache holds.
      const EventPtr want = named != owner.end()
                                ? model.get(named->second)
                                : model.get(EventId{NodeId{999}, 0});
      ASSERT_EQ(cache.find(key.source, key.pattern, key.seq), want);
    } else if (op < 92) {
      const Pattern p{static_cast<std::uint32_t>(rng.next_below(kPatterns))};
      ASSERT_EQ(cache.ids_matching(p), model.ids_matching(p));
    } else if (op < 96) {
      cache.clear();
      model.clear();
    } else {
      // Destroy the cache and build a fresh one in its place.
      caches[c].reset();
      build(c);
    }
    sync_holders();

    // Every cache against its model, membership of every event included.
    for (int i = 0; i < k; ++i) {
      for (const EventPtr& e : published) {
        ASSERT_EQ(caches[i]->contains(e->id()), models[i]->contains(e->id()))
            << "cache " << i;
      }
      ASSERT_EQ(caches[i]->size(), models[i]->size()) << "cache " << i;
      ASSERT_EQ(caches[i]->snapshot_events(), models[i]->events())
          << "cache " << i;
      ASSERT_EQ(caches[i]->stats().hits, models[i]->hits()) << "cache " << i;
      ASSERT_EQ(caches[i]->stats().misses, models[i]->misses())
          << "cache " << i;
    }
    // The registry against the union: exactly the held events are live,
    // each counting its holders.
    ASSERT_EQ(registry.size(), holders.size());
    for (const EventPtr& e : published) {
      const std::uint32_t entry = registry.find(e->id());
      const auto held = holders.find(e->id());
      if (held == holders.end()) {
        ASSERT_EQ(entry, EventRegistry::kNone);
        continue;
      }
      ASSERT_NE(entry, EventRegistry::kNone);
      ASSERT_EQ(registry.event(entry), e);
      ASSERT_EQ(registry.holders(entry),
                static_cast<std::uint32_t>(held->second));
    }
    if (stream_index) {
      for (const EventPtr& e : published) {
        for (const PatternSeq& ps : e->patterns()) {
          const LostEntryInfo key{e->source(), ps.pattern, ps.seq};
          const auto named = owner.find(key);
          ASSERT_EQ(registry.find(key.source, key.pattern, key.seq),
                    named != owner.end() ? registry.find(named->second)
                                         : EventRegistry::kNone);
        }
      }
    }
  }
  EXPECT_TRUE(stream_index);
  // Every cache cleared: the registry is empty.
  for (int i = 0; i < k; ++i) caches[i]->clear();
  EXPECT_EQ(registry.size(), 0u);
  for (const EventPtr& e : published) {
    ASSERT_EQ(registry.find(e->id()), EventRegistry::kNone);
    for (const PatternSeq& ps : e->patterns()) {
      ASSERT_EQ(registry.find(e->source(), ps.pattern, ps.seq),
                EventRegistry::kNone);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    CachesAndPolicies, SharedRegistry,
    ::testing::Combine(::testing::Values(1, 3, 5),
                       ::testing::Values(CachePolicy::Fifo, CachePolicy::Lru,
                                         CachePolicy::Random)));

TEST(EventCache, IndexesAreBuiltOnlyForTheirReader) {
  EventRegistry registry;
  EventCache cache(8, CachePolicy::Fifo, Rng{1}, registry);
  for (std::uint64_t i = 0; i < 20; ++i) {
    cache.insert(ev(0, i, {{Pattern{1}, SeqNo{i + 1}}}));
  }
  const std::size_t cache_bytes = cache.memory_bytes();
  const std::size_t id_index_only = registry.memory_bytes();
  EXPECT_EQ(cache.pattern_index_entries(), 0u);
  // The first find() indexes the registered events, evicted ones excluded;
  // the stream index lives in the registry, not in the cache.
  EXPECT_EQ(cache.find(NodeId{0}, Pattern{1}, SeqNo{20})->id(),
            (EventId{NodeId{0}, 19}));
  EXPECT_EQ(cache.find(NodeId{0}, Pattern{1}, SeqNo{12}), nullptr);
  EXPECT_GT(registry.memory_bytes(), id_index_only);
  EXPECT_EQ(cache.memory_bytes(), cache_bytes);
  cache.insert(ev(0, 20, {{Pattern{1}, SeqNo{21}}}));
  EXPECT_EQ(cache.find(NodeId{0}, Pattern{1}, SeqNo{13}), nullptr);
  EXPECT_NE(cache.find(NodeId{0}, Pattern{1}, SeqNo{21}), nullptr);
}

TEST(EventCacheDeath, IdsMatchingNeedsTheOptIn) {
  EventRegistry registry;
  EventCache cache(4, CachePolicy::Fifo, Rng{1}, registry);
  cache.insert(ev(0, 0, {{Pattern{1}, SeqNo{1}}}));
  EXPECT_DEATH((void)cache.ids_matching(Pattern{1}), "keep_pattern_index");
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
