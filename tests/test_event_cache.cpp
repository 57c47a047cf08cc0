// Unit tests for the retransmission buffer: capacity, FIFO eviction and its
// ring, id and (source, pattern, seq) lookup, the per-pattern digest index,
// and which of those indexes each protocol's cache keeps.
#include "epicast/gossip/event_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <string>
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
  EventCache cache(4, registry);
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
  EventCache cache(4, registry);
  EXPECT_EQ(cache.get(EventId{NodeId{9}, 9}), nullptr);
  EXPECT_EQ(cache.find(NodeId{9}, Pattern{1}, SeqNo{1}), nullptr);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(EventCache, FindBySourcePatternSeq) {
  EventRegistry registry;
  EventCache cache(4, registry);
  auto e = ev(3, 1, {{Pattern{5}, SeqNo{7}}, {Pattern{9}, SeqNo{2}}});
  cache.insert(e);
  EXPECT_EQ(cache.find(NodeId{3}, Pattern{5}, SeqNo{7}), e);
  EXPECT_EQ(cache.find(NodeId{3}, Pattern{9}, SeqNo{2}), e);
  EXPECT_EQ(cache.find(NodeId{3}, Pattern{5}, SeqNo{8}), nullptr);
  EXPECT_EQ(cache.find(NodeId{4}, Pattern{5}, SeqNo{7}), nullptr);
}

TEST(EventCache, FifoEvictsOldestFirst) {
  EventRegistry registry;
  EventCache cache(3, registry);
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

TEST(EventCache, RingKeepsEvictionOrderAcrossWraps) {
  // Past β the eviction order is a ring: the snapshot lists the newest β
  // insertions oldest first, and re-inserting it into an empty cache (a
  // warm restart) reproduces the order, so both caches evict alike.
  EventRegistry registry;
  EventCache cache(4, registry);
  std::vector<EventPtr> e;
  for (std::uint64_t i = 0; i <= 10; ++i) {
    e.push_back(ev(0, i, {{Pattern{1}, SeqNo{i + 1}}}));
  }
  for (std::size_t i = 0; i < 10; ++i) cache.insert(e[i]);
  EXPECT_EQ(cache.snapshot_events(),
            (std::vector<EventPtr>{e[6], e[7], e[8], e[9]}));
  EventCache reborn(4, registry);
  for (const EventPtr& held : cache.snapshot_events()) reborn.insert(held);
  cache.insert(e[10]);
  reborn.insert(e[10]);
  EXPECT_EQ(cache.snapshot_events(),
            (std::vector<EventPtr>{e[7], e[8], e[9], e[10]}));
  EXPECT_EQ(reborn.snapshot_events(), cache.snapshot_events());
  EXPECT_FALSE(cache.contains(e[6]->id()));
}

TEST(EventCache, IdsMatchingFiltersByPattern) {
  EventRegistry registry;
  EventCache cache(10, registry);
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
  EventCache cache(2, registry);
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

TEST(EventCache, NeverExceedsCapacityAndStaysConsistent) {
  EventRegistry registry;
  EventCache cache(32, registry);
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

TEST(EventCache, IdsMatchingIntoAgreesWithAllocatingVariant) {
  // Twin caches on one registry: each event has two holders.
  EventRegistry registry;
  EventCache a(16, registry);
  EventCache b(16, registry);
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
    b.ids_matching_into(probe, scratch);
    ASSERT_EQ(scratch, a.ids_matching(probe));
  }
}

TEST(EventCache, SlotStorageGrowsWithContentUpToBeta) {
  // β is a ceiling, not a reservation: a cache holding a few events owns a
  // few slots, and a full one exactly β (not the next power of two),
  // however long its insert-evict churn runs.
  constexpr std::size_t kBeta = 1500;
  EventRegistry registry;
  EventCache cache(kBeta, registry);
  EXPECT_EQ(cache.slot_capacity(), 0u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    cache.insert(ev(0, i, {{Pattern{1}, SeqNo{i + 1}}}));
  }
  EXPECT_LE(cache.slot_capacity(), 4u);
  // A β-slot reservation alone is 4 bytes a slot (one registry entry).
  EXPECT_LT(cache.memory_bytes(), kBeta * 4 / 10);
  for (std::uint64_t i = 3; i < 2 * kBeta; ++i) {
    cache.insert(ev(0, i, {{Pattern{1}, SeqNo{i + 1}}}));
    ASSERT_LE(cache.slot_capacity(), kBeta) << "insert " << i;
    ASSERT_GE(cache.slot_capacity(), cache.size());
  }
  EXPECT_EQ(cache.size(), kBeta);
  EXPECT_EQ(cache.slot_capacity(), kBeta);
  EXPECT_EQ(cache.stats().evictions, kBeta);
}

TEST(EventCache, PatternIndexStaysTightUnderFifoChurn) {
  // Each eviction pops the victim's ids from its buckets' fronts, so the
  // per-pattern index holds live entries only.
  EventRegistry registry;
  EventCache cache(8, registry);
  cache.keep_pattern_index();
  for (std::uint64_t i = 0; i < 1000; ++i) {
    cache.insert(ev(0, i,
                    {{Pattern{static_cast<std::uint32_t>(i % 2)},
                      SeqNo{i + 1}}}));
    ASSERT_LE(cache.pattern_index_entries(), cache.size());
  }
  EXPECT_EQ(cache.pattern_index_entries(), 8u);
}

TEST(EventCache, PatternIndexCostsFourBytesAnEntry) {
  // The per-pattern index names each held event by its registry entry, 4
  // bytes, not by a 16-byte id copy. A queue's vector holds its live
  // entries plus a dead prefix of at most as many (compaction) and spare
  // capacity of at most as many again (doubling): at most 4 slots a live
  // entry, 16 bytes with 4-byte slots but 64 with id copies.
  constexpr std::size_t kBeta = 1000;
  EventRegistry plain_registry;
  EventRegistry indexed_registry;
  EventCache plain(kBeta, plain_registry);
  EventCache indexed(kBeta, indexed_registry);
  indexed.keep_pattern_index();
  for (std::uint64_t i = 0; i < 3 * kBeta; ++i) {
    const auto e = ev(0, i, {{Pattern{1}, SeqNo{i + 1}}});
    plain.insert(e);
    indexed.insert(e);
  }
  ASSERT_EQ(indexed.pattern_index_entries(), kBeta);
  const std::size_t index_bytes = indexed.memory_bytes() - plain.memory_bytes();
  // One bucket of the pattern table, 8 slots, is the rest.
  EXPECT_LE(index_bytes, 4 * sizeof(std::uint32_t) * kBeta + 512);
}

TEST(EventCache, FifoDigestNeedsNoLivenessFiltering) {
  // Interleave three patterns so evictions hit buckets the query never
  // touches; the digest must still be exactly the live ids.
  EventRegistry registry;
  EventCache cache(4, registry);
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

TEST(EventCache, SlotRecyclingPreservesLookups) {
  // Heavy insert/evict churn wraps the ring many times; spot-check both
  // lookup paths for the survivors after every insert.
  EventRegistry registry;
  EventCache cache(6, registry);
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

/// Naive model of the cache: the cached events in insertion order, which
/// FIFO makes the eviction order too (front = next victim). Every query is
/// a linear scan.
class NaiveCache {
 public:
  explicit NaiveCache(std::size_t capacity) : capacity_(capacity) {}

  bool insert(const EventPtr& e) {
    if (contains(e->id())) return false;
    if (order_.size() == capacity_) order_.pop_front();
    order_.push_back(e);
    return true;
  }
  EventPtr get(const EventId& id) {
    return count(std::find_if(
        order_.begin(), order_.end(),
        [&](const EventPtr& e) { return e->id() == id; }));
  }
  EventPtr find(NodeId source, Pattern pattern, SeqNo seq) {
    return count(std::find_if(order_.begin(), order_.end(),
                              [&](const EventPtr& e) {
                                if (e->source() != source) return false;
                                for (const PatternSeq& ps : e->patterns()) {
                                  if (ps.pattern == pattern && ps.seq == seq) {
                                    return true;
                                  }
                                }
                                return false;
                              }));
  }
  /// Cached ids matching `pattern` in insertion order.
  std::vector<EventId> ids_matching(Pattern pattern) const {
    std::vector<EventId> out;
    for (const EventPtr& e : order_) {
      for (const PatternSeq& ps : e->patterns()) {
        if (ps.pattern == pattern) out.push_back(e->id());
      }
    }
    return out;
  }
  [[nodiscard]] bool contains(const EventId& id) const {
    return std::any_of(order_.begin(), order_.end(),
                       [&](const EventPtr& e) { return e->id() == id; });
  }
  [[nodiscard]] std::size_t size() const { return order_.size(); }
  /// The cached events in eviction order, as snapshot_events() lists them.
  [[nodiscard]] std::vector<EventPtr> events() const {
    return {order_.begin(), order_.end()};
  }
  void clear() { order_.clear(); }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

 private:
  EventPtr count(std::deque<EventPtr>::iterator it) {
    if (it == order_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    return *it;
  }

  std::size_t capacity_;
  std::deque<EventPtr> order_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

TEST(EventCache, LookupsAgreeWithNaiveModelAfterEvictions) {
  // Random inserts (fresh events and re-inserts of cached ones), id and
  // (source, pattern, seq) lookups and per-pattern digests, compared with
  // the naive model after every step.
  // The first (source, pattern, seq) lookup comes only after many
  // evictions, so the index it builds from the cached events must answer
  // like one kept from the start.
  constexpr std::size_t kCapacity = 24;
  constexpr std::uint32_t kSources = 5;
  constexpr std::uint32_t kPatterns = 7;
  constexpr int kFirstFindStep = 1000;
  EventRegistry registry;
  EventCache cache(kCapacity, registry);
  cache.keep_pattern_index();
  NaiveCache model(kCapacity);
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
  // Final sweep over every event ever published, without counting hits.
  for (const EventPtr& e : published) {
    ASSERT_EQ(cache.contains(e->id()), model.contains(e->id()));
  }
  for (std::uint32_t p = 0; p < kPatterns; ++p) {
    ASSERT_EQ(cache.ids_matching(Pattern{p}), model.ids_matching(Pattern{p}));
  }
}

/// K caches on one registry, driven by random operations and checked after
/// every step: each cache against its own naive model, and the registry
/// against the union of the models.
class SharedRegistry : public ::testing::TestWithParam<int> {};

TEST_P(SharedRegistry, CachesAndRegistryAgreeWithNaiveModels) {
  const int k = GetParam();
  constexpr std::size_t kCapacity = 12;
  constexpr std::uint32_t kSources = 4;
  constexpr std::uint32_t kPatterns = 6;
  constexpr int kSteps = 2500;
  constexpr int kFirstFindStep = 600;
  EventRegistry registry;
  std::vector<std::unique_ptr<EventCache>> caches(k);
  std::vector<std::unique_ptr<NaiveCache>> models(k);
  const auto build = [&](int c) {
    caches[c] = std::make_unique<EventCache>(kCapacity, registry);
    caches[c]->keep_pattern_index();
    models[c] = std::make_unique<NaiveCache>(kCapacity);
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

INSTANTIATE_TEST_SUITE_P(Caches, SharedRegistry, ::testing::Values(1, 3, 5));

TEST(EventCache, IndexesAreBuiltOnlyForTheirReader) {
  EventRegistry registry;
  EventCache cache(8, registry);
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
  EventCache cache(4, registry);
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
