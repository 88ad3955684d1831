// Result Cache (Section IV-A): holds qualifying tuples that Smooth Scan
// harvested ahead of their position in the index order, so that a plan
// relying on the index's interesting order (e.g. ORDER BY, Merge Join input)
// still receives tuples in key order.
//
// The cache is partitioned by index-key range, with partition boundaries
// taken from the separators in the B+-tree root ("the root page is a good
// indicator of the key value distributions"). Once the scan cursor passes a
// partition's upper bound the partition can be dropped wholesale — the bulk
// deletion scheme the paper describes.
//
// Format: tuples stay in their encoded page bytes. One append-only byte
// arena holds them, and one flat open-addressing table keyed by the packed
// Tid maps each cached tuple to its (offset, size, partition). Insert copies
// bytes, Take decodes them straight into the caller's recycled batch slot,
// and the arena and table keep their storage as tuples come and go: once
// they have grown to the scan's working size, neither allocates again.
// Taken tuples leave tombstones that later inserts reuse; a rehash (growth,
// or tombstone clean-up at the same size) and an arena compaction (when the
// arena would grow while at least half of it is dead) run through retained
// scratch storage.
//
// Spilling: "if memory becomes scarce, cache spilling could be employed by
// using overflow files. Caches containing the ranges the furthest from the
// current key range are spilled into the overflow files that are read upon
// reaching the range keys belong to." With a resident-tuple budget and an
// engine attached, the cache spills its furthest partitions to a simulated
// overflow file (write I/O charged) and restores them on demand (read I/O
// charged).

#ifndef SMOOTHSCAN_ACCESS_RESULT_CACHE_H_
#define SMOOTHSCAN_ACCESS_RESULT_CACHE_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "mem/memory_broker.h"
#include "storage/engine.h"
#include "storage/schema.h"

namespace smoothscan {

namespace obs {
class Counter;
}  // namespace obs

class TableVersionRegistry;

struct ResultCacheOptions {
  /// Maximum tuples resident in memory before the furthest partitions spill.
  /// Default: unbounded (no spilling).
  uint64_t max_resident_tuples = UINT64_MAX;
  /// Tuples that fit in one overflow-file page (sizing the charged I/O).
  uint32_t spill_tuples_per_page = 64;
  /// Memory broker the cache reports its resident bytes to. Under global
  /// pressure the cache spills furthest partitions even below its own tuple
  /// budget — the broker's preferred alternative to refusing memory. Needs
  /// `engine` (spill I/O is charged); null = ungoverned.
  MemoryBroker* broker = nullptr;
  /// Resident-footprint estimate per cached tuple for broker accounting.
  uint32_t bytes_per_tuple = 128;
  /// Live registry counters for spill/restore events (all-null = off). The
  /// owning SmoothScan latches ResultCacheStats into SmoothScanStats only at
  /// Close(); these fire at the event itself, so mid-query pressure response
  /// is visible in a snapshot or trace taken while the scan is running.
  obs::Counter* spill_events = nullptr;
  obs::Counter* pressure_spill_events = nullptr;
  obs::Counter* restore_events = nullptr;
};

struct ResultCacheStats {
  uint64_t spills = 0;           ///< Partition spill events.
  uint64_t restores = 0;         ///< Partition restore events.
  uint64_t spilled_tuples = 0;   ///< Cumulative tuples written out.
  uint64_t restored_tuples = 0;  ///< Cumulative tuples read back.
  uint64_t pressure_spills = 0;  ///< Spills forced by broker pressure.
};

class ResultCache {
 public:
  /// `separators` are ascending partition boundaries; partition i holds keys
  /// in [separators[i-1], separators[i]). Empty separators = one partition.
  /// `engine` may be null when `options` disables spilling.
  explicit ResultCache(std::vector<int64_t> separators,
                       Engine* engine = nullptr,
                       ResultCacheOptions options = ResultCacheOptions());
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Subscribes the cache to `table`'s publish notifications: any publish of
  /// that table Clear()s the cache, because cached tuples were harvested from
  /// the pre-publish snapshot and may now be stale (deleted, updated, or
  /// re-keyed). The hook unregisters in the destructor. At most one
  /// attachment per cache.
  void AttachInvalidation(TableVersionRegistry* registry, FileId table);

  /// Drops every cached tuple in every partition (spilled ones included) and
  /// rewinds the live-partition cursor, making all partitions insertable
  /// again. Cumulative counters (inserts, max_size, spill stats) survive —
  /// only content is invalidated.
  void Clear();

  /// Caches a copy of the encoded tuple `data[0, size)` for `tid` under
  /// `key`. A Tid that is already cached is left as it is.
  void Insert(int64_t key, Tid tid, const uint8_t* data, uint32_t size);

  /// Removes the tuple for (`key`, `tid`) and decodes it with `schema` into
  /// `out`, reusing out's storage. Returns false on a miss (`out` untouched).
  /// Restores the owning partition from the overflow file when it was
  /// spilled.
  bool Take(int64_t key, Tid tid, const Schema& schema, Tuple* out);

  /// Drops all partitions whose key range lies entirely below `key` — the
  /// scan cursor has passed them. Returns the number of evicted tuples.
  uint64_t EvictBelow(int64_t key);

  /// Tuples held (resident + spilled).
  uint64_t size() const { return size_; }
  uint64_t resident_size() const { return resident_size_; }
  uint64_t max_size() const { return max_size_; }
  uint64_t inserts() const { return inserts_; }
  /// Publish-triggered Clear()s since attachment.
  uint64_t invalidations() const { return invalidations_; }
  const ResultCacheStats& spill_stats() const { return spill_stats_; }
  /// Slots of the open-addressing table. It tracks the live working set,
  /// not the number of tuples that passed through the cache.
  size_t table_slots() const { return table_.size(); }

 private:
  static uint64_t Pack(Tid tid) {
    return (static_cast<uint64_t>(tid.page_id) << 16) | tid.slot;
  }
  /// Table keys that no packed Tid (48 bits) can take.
  static constexpr uint64_t kEmpty = UINT64_MAX;
  static constexpr uint64_t kTombstone = UINT64_MAX - 1;

  /// One table slot: a cached tuple's place in the arena.
  struct Entry {
    uint64_t tid = kEmpty;
    uint32_t offset = 0;
    uint32_t size = 0;
    uint32_t partition = 0;
  };
  struct Partition {
    uint64_t tuples = 0;  ///< Cached tuples (resident or spilled).
    bool spilled = false;
  };

  /// Home slot of a packed Tid (Fibonacci hashing onto the table size).
  size_t Home(uint64_t packed) const {
    return static_cast<size_t>((packed * 0x9E3779B97F4A7C15ull) >>
                               hash_shift_);
  }
  /// Table slot holding `packed`, or table_.size() when absent.
  size_t Find(uint64_t packed) const;
  /// Rebuilds the table at a size that keeps it at most half full with one
  /// more entry, dropping tombstones.
  void Rehash();
  /// Appends `data` to the arena (compacting it first when it would grow
  /// while mostly dead) and returns its offset.
  uint32_t AppendBytes(const uint8_t* data, uint32_t size);
  void CompactArena();
  /// Tombstones every entry of a partition below `first_live_partition_`.
  void DropEvictedEntries();
  /// Marks table slot `i` dead and settles the byte and tuple counts.
  void Remove(size_t i);

  /// Partition index owning `key`.
  size_t PartitionOf(int64_t key) const;
  /// Writes one partition to the overflow file (charged) and marks it
  /// non-resident.
  void SpillPartition(size_t p);
  /// Spills furthest partitions until the resident budget is met. Never
  /// spills `keep` (the partition being inserted into).
  void MaybeSpill(size_t keep);
  /// Broker-pressure path: spills furthest partitions (skipping `keep`)
  /// until the broker drops below its global budget or nothing resident
  /// remains. Queries never fail — they just read the overflow file later.
  void SpillForPressure(size_t keep);
  void Restore(size_t p);
  /// Re-syncs the broker consumer to `resident_size_ * bytes_per_tuple`.
  void SyncBrokerCharge();
  /// Overflow-file pages for `n` tuples.
  uint32_t SpillPages(size_t n) const;

  std::vector<int64_t> separators_;
  std::vector<Partition> partitions_;
  std::vector<Entry> table_;  ///< Power-of-two size (empty until used).
  uint32_t hash_shift_ = 64;
  uint64_t used_slots_ = 0;   ///< Live entries plus tombstones.
  std::vector<uint8_t> arena_;
  uint64_t live_bytes_ = 0;   ///< Arena bytes of live entries.
  /// Retained targets of Rehash / CompactArena (swapped with the live ones).
  std::vector<Entry> scratch_table_;
  std::vector<uint8_t> scratch_arena_;
  Engine* engine_;
  ResultCacheOptions options_;
  MemoryBroker::Consumer mem_;
  ResultCacheStats spill_stats_;
  FileId spill_file_ = 0;
  bool spill_file_created_ = false;
  PageId next_spill_page_ = 0;

  size_t first_live_partition_ = 0;
  uint64_t size_ = 0;
  uint64_t resident_size_ = 0;
  uint64_t max_size_ = 0;
  uint64_t inserts_ = 0;
  uint64_t invalidations_ = 0;

  TableVersionRegistry* registry_ = nullptr;
  uint64_t hook_token_ = 0;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_ACCESS_RESULT_CACHE_H_
