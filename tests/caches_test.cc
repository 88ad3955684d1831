// Unit tests for Smooth Scan's auxiliary structures: Page ID Cache, Tuple ID
// Cache and the key-range-partitioned Result Cache.

#include <gtest/gtest.h>

#include "access/page_id_cache.h"
#include "access/result_cache.h"
#include "access/tuple_id_cache.h"
#include "result_cache_util.h"
#include "write/table_version.h"

namespace smoothscan {
namespace {

TEST(PageIdCacheTest, MarkAndCheck) {
  PageIdCache cache(100);
  EXPECT_FALSE(cache.IsMarked(5));
  cache.Mark(5);
  EXPECT_TRUE(cache.IsMarked(5));
  EXPECT_EQ(cache.count(), 1u);
}

TEST(PageIdCacheTest, DoubleMarkCountsOnce) {
  PageIdCache cache(10);
  cache.Mark(3);
  cache.Mark(3);
  EXPECT_EQ(cache.count(), 1u);
}

TEST(PageIdCacheTest, SizeBytesIsBitmapSized) {
  // One bit per page: 1 M pages = 128 KB (the paper quotes 140 KB for a
  // 1 M-page LINEITEM; the delta is header overhead in their implementation).
  PageIdCache cache(1000000);
  EXPECT_EQ(cache.SizeBytes(), 125000u);
}

TEST(PageIdCacheTest, IndependentBits) {
  PageIdCache cache(64);
  for (PageId p = 0; p < 64; p += 2) cache.Mark(p);
  for (PageId p = 0; p < 64; ++p) {
    EXPECT_EQ(cache.IsMarked(p), p % 2 == 0);
  }
  EXPECT_EQ(cache.count(), 32u);
}

TEST(TupleIdCacheTest, InsertAndContains) {
  TupleIdCache cache;
  const Tid a{10, 3};
  const Tid b{10, 4};
  cache.Insert(a);
  EXPECT_TRUE(cache.Contains(a));
  EXPECT_FALSE(cache.Contains(b));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(TupleIdCacheTest, DistinguishesPagesAndSlots) {
  TupleIdCache cache;
  cache.Insert(Tid{1, 2});
  EXPECT_FALSE(cache.Contains(Tid{2, 1}));
  EXPECT_FALSE(cache.Contains(Tid{1, 3}));
  EXPECT_TRUE(cache.Contains(Tid{1, 2}));
}

TEST(ResultCacheTest, InsertTakeRoundTrip) {
  ResultCache cache({});
  CachePut(&cache, 5, Tid{1, 0}, 42);
  EXPECT_EQ(cache.size(), 1u);
  std::optional<Tuple> t = CacheTake(&cache, 5, Tid{1, 0});
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ((*t)[0].AsInt64(), 42);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCacheTest, TakeIsDestructive) {
  ResultCache cache({});
  CachePut(&cache, 5, Tid{1, 0}, 42);
  EXPECT_TRUE(CacheTake(&cache, 5, Tid{1, 0}).has_value());
  EXPECT_FALSE(CacheTake(&cache, 5, Tid{1, 0}).has_value());
}

TEST(ResultCacheTest, MissOnUnknownTid) {
  ResultCache cache({});
  CachePut(&cache, 5, Tid{1, 0}, 42);
  EXPECT_FALSE(CacheTake(&cache, 5, Tid{1, 1}).has_value());
}

TEST(ResultCacheTest, PartitionsByKeyRange) {
  ResultCache cache({10, 20});
  CachePut(&cache, 5, Tid{0, 0}, 1);    // Partition 0: keys < 10.
  CachePut(&cache, 15, Tid{0, 1}, 2);   // Partition 1: [10, 20).
  CachePut(&cache, 25, Tid{0, 2}, 3);   // Partition 2: >= 20.
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_TRUE(CacheTake(&cache, 15, Tid{0, 1}).has_value());
}

TEST(ResultCacheTest, EvictBelowDropsDeadPartitions) {
  ResultCache cache({10, 20});
  CachePut(&cache, 5, Tid{0, 0}, 1);
  CachePut(&cache, 15, Tid{0, 1}, 2);
  CachePut(&cache, 25, Tid{0, 2}, 3);
  // Cursor reached key 20: partitions for keys < 20 are dead.
  EXPECT_EQ(cache.EvictBelow(20), 2u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(CacheTake(&cache, 5, Tid{0, 0}).has_value());
  EXPECT_TRUE(CacheTake(&cache, 25, Tid{0, 2}).has_value());
}

TEST(ResultCacheTest, EvictBelowBoundaryKeepsOwnPartition) {
  ResultCache cache({10});
  CachePut(&cache, 10, Tid{0, 0}, 1);
  // Cursor at 10: partition [10, inf) is live, partition (-inf, 10) is dead.
  EXPECT_EQ(cache.EvictBelow(10), 0u);
  EXPECT_TRUE(CacheTake(&cache, 10, Tid{0, 0}).has_value());
}

TEST(ResultCacheTest, MaxSizeTracksHighWater) {
  ResultCache cache({});
  for (int i = 0; i < 10; ++i) {
    CachePut(&cache, i, Tid{0, static_cast<SlotId>(i)}, i);
  }
  for (int i = 0; i < 5; ++i) {
    CacheTake(&cache, i, Tid{0, static_cast<SlotId>(i)});
  }
  EXPECT_EQ(cache.size(), 5u);
  EXPECT_EQ(cache.max_size(), 10u);
  EXPECT_EQ(cache.inserts(), 10u);
}

TEST(ResultCacheTest, ClearDropsContentKeepsCounters) {
  ResultCache cache({10, 20});
  CachePut(&cache, 5, Tid{0, 0}, 1);
  CachePut(&cache, 15, Tid{0, 1}, 2);
  EXPECT_EQ(cache.EvictBelow(10), 1u);  // Advance the live-partition cursor.
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.resident_size(), 0u);
  EXPECT_FALSE(CacheTake(&cache, 15, Tid{0, 1}).has_value());
  // Cleared, not reset: cumulative counters survive ...
  EXPECT_EQ(cache.inserts(), 2u);
  EXPECT_EQ(cache.max_size(), 2u);
  // ... and the partition cursor rewound, so low keys are insertable again.
  CachePut(&cache, 5, Tid{0, 0}, 1);
  EXPECT_TRUE(CacheTake(&cache, 5, Tid{0, 0}).has_value());
}

TEST(ResultCacheTest, RoundTripsVariableWidthTuplesIntoReusedStorage) {
  // The cache stores page bytes; Take decodes with the caller's schema into
  // the caller's tuple, whatever that tuple held before.
  const Schema schema({{"id", ValueType::kInt64},
                       {"name", ValueType::kString},
                       {"price", ValueType::kDouble},
                       {"day", ValueType::kDate}});
  ResultCache cache({100});
  std::vector<Tuple> rows;
  for (int i = 0; i < 40; ++i) {
    rows.push_back({Value::Int64(i), Value::String(std::string(i % 7, 'x')),
                    Value::Double(i * 0.5), Value::Date(18000 + i)});
    CachePut(&cache, i * 5, Tid{static_cast<PageId>(i), 0}, rows.back(),
             schema);
  }
  Tuple out = {Value::String("stale"), Value::Int64(-1)};
  for (int i = 39; i >= 0; --i) {
    ASSERT_TRUE(
        cache.Take(i * 5, Tid{static_cast<PageId>(i), 0}, schema, &out));
    EXPECT_EQ(out, rows[i]) << "row " << i;
  }
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCacheTest, TombstonesAreReusedUnderChurn) {
  // A long churn of insert/take pairs beside one long-lived entry never
  // grows the table: taken slots become tombstones that the next inserts
  // reuse (or a same-size rehash clears).
  ResultCache cache({});
  CachePut(&cache, -1, Tid{9999, 0}, 7);
  const size_t slots = cache.table_slots();
  ASSERT_GT(slots, 0u);
  for (int i = 0; i < 20000; ++i) {
    const Tid tid{static_cast<PageId>(i / 50), static_cast<SlotId>(i % 50)};
    CachePut(&cache, i, tid, i);
    if (i % 2 == 1) {
      // Two live at a time: take both, the older one first.
      const Tid prev{static_cast<PageId>((i - 1) / 50),
                     static_cast<SlotId>((i - 1) % 50)};
      ASSERT_EQ(CacheTake(&cache, i - 1, prev).value()[0].AsInt64(), i - 1);
      ASSERT_EQ(CacheTake(&cache, i, tid).value()[0].AsInt64(), i);
    }
    ASSERT_EQ(cache.table_slots(), slots) << "table grew at op " << i;
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(CacheTake(&cache, -1, Tid{9999, 0}).value()[0].AsInt64(), 7);
}

TEST(ResultCacheTest, GrowsWhileEntriesAreLive) {
  // Rehashes and arena compactions run while entries are live and others
  // have been taken: every remaining tuple must survive them intact.
  ResultCache cache({250, 500, 750});
  const size_t initial_slots = [&] {
    CachePut(&cache, 0, Tid{0, 1}, 0);
    return cache.table_slots();
  }();
  std::vector<bool> live(2000, false);
  live[0] = true;
  for (int i = 1; i < 2000; ++i) {
    const int64_t key = (i * 37) % 1000;
    CachePut(&cache, key, Tid{static_cast<PageId>(i), 1}, i * 3);
    live[i] = true;
    if (i % 3 == 0) {
      // Take an older entry so the arena accumulates dead bytes.
      const int j = i / 2;
      if (live[j]) {
        const std::optional<Tuple> t = CacheTake(
            &cache, (j * 37) % 1000, Tid{static_cast<PageId>(j), 1});
        ASSERT_TRUE(t.has_value()) << "entry " << j;
        EXPECT_EQ((*t)[0].AsInt64(), j * 3);
        live[j] = false;
      }
    }
  }
  EXPECT_GT(cache.table_slots(), initial_slots);
  uint64_t remaining = 0;
  for (int i = 0; i < 2000; ++i) {
    if (!live[i]) continue;
    ++remaining;
    const std::optional<Tuple> t = CacheTake(
        &cache, (i * 37) % 1000, Tid{static_cast<PageId>(i), 1});
    ASSERT_TRUE(t.has_value()) << "entry " << i;
    EXPECT_EQ((*t)[0].AsInt64(), i * 3);
  }
  EXPECT_GT(remaining, 1000u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCacheTest, EvictBelowAndClearOnAGrownTable) {
  ResultCache cache({250, 500, 750});
  for (int i = 0; i < 1000; ++i) {
    CachePut(&cache, i, Tid{static_cast<PageId>(i), 0}, i + 1);
  }
  const size_t grown = cache.table_slots();
  ASSERT_GE(grown, 2048u);
  // The cursor passed key 500: partitions 0 and 1 go, wholesale.
  EXPECT_EQ(cache.EvictBelow(500), 500u);
  EXPECT_EQ(cache.size(), 500u);
  EXPECT_FALSE(CacheTake(&cache, 10, Tid{10, 0}).has_value());
  EXPECT_FALSE(CacheTake(&cache, 499, Tid{499, 0}).has_value());
  for (int i = 500; i < 1000; i += 7) {
    const std::optional<Tuple> t =
        CacheTake(&cache, i, Tid{static_cast<PageId>(i), 0});
    ASSERT_TRUE(t.has_value()) << "key " << i;
    EXPECT_EQ((*t)[0].AsInt64(), i + 1);
  }
  // Clear-on-publish empties the grown table but keeps its storage, and
  // rewinds the partition cursor: low keys are insertable again.
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.table_slots(), grown);
  EXPECT_FALSE(CacheTake(&cache, 900, Tid{900, 0}).has_value());
  CachePut(&cache, 10, Tid{10, 0}, 11);
  CachePut(&cache, 900, Tid{900, 0}, 901);
  EXPECT_EQ(CacheTake(&cache, 10, Tid{10, 0}).value()[0].AsInt64(), 11);
  EXPECT_EQ(CacheTake(&cache, 900, Tid{900, 0}).value()[0].AsInt64(), 901);
}

TEST(ResultCacheTest, PublishInvalidationClearsAttachedTableOnly) {
  // Tuples cached from a snapshot are stale once that table publishes: the
  // registry's publish-hook fan-out must Clear() the attached cache — and
  // only for its own table.
  Engine engine((EngineOptions()));
  HeapFile heap(&engine, "cached_table", MakeIntSchema(2));
  HeapFile other(&engine, "other_table", MakeIntSchema(2));
  SMOOTHSCAN_CHECK(heap.Append({Value::Int64(1), Value::Int64(2)}).ok());
  SMOOTHSCAN_CHECK(other.Append({Value::Int64(3), Value::Int64(4)}).ok());
  TableVersionRegistry registry(&engine);

  ResultCache cache({});
  cache.AttachInvalidation(&registry, heap.file_id());
  CachePut(&cache, 5, Tid{0, 0}, 42);

  // A publish of an unrelated table leaves the cache intact.
  registry.BeginWrite(other.file_id(), &other).Release();
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.invalidations(), 0u);

  // A publish of the attached table clears it.
  registry.BeginWrite(heap.file_id(), &heap).Release();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_FALSE(CacheTake(&cache, 5, Tid{0, 0}).has_value());

  // Detach-on-destruction: a cache dying before the registry must not leave
  // a dangling hook behind for the next publish to call.
  {
    ResultCache doomed({});
    doomed.AttachInvalidation(&registry, heap.file_id());
  }
  registry.BeginWrite(heap.file_id(), &heap).Release();
  EXPECT_EQ(cache.invalidations(), 2u);  // Survivor still wired.
}

}  // namespace
}  // namespace smoothscan
