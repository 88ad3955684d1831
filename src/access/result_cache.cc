#include "access/result_cache.h"

#include <algorithm>

#include "obs/metrics.h"
#include "write/table_version.h"

namespace smoothscan {

ResultCache::ResultCache(std::vector<int64_t> separators, Engine* engine,
                         ResultCacheOptions options)
    : separators_(std::move(separators)), engine_(engine), options_(options) {
  SMOOTHSCAN_CHECK(std::is_sorted(separators_.begin(), separators_.end()));
  SMOOTHSCAN_CHECK(options_.spill_tuples_per_page > 0);
  if (options_.max_resident_tuples != UINT64_MAX) {
    SMOOTHSCAN_CHECK(engine_ != nullptr);
  }
  if (options_.broker != nullptr) {
    SMOOTHSCAN_CHECK(engine_ != nullptr);  // Pressure spill charges I/O.
    mem_ = options_.broker->Register(MemoryClass::kResultCache, "result_cache");
  }
  partitions_.resize(separators_.size() + 1);
}

ResultCache::~ResultCache() {
  if (registry_ != nullptr) registry_->RemovePublishHook(hook_token_);
}

void ResultCache::AttachInvalidation(TableVersionRegistry* registry,
                                     FileId table) {
  SMOOTHSCAN_CHECK(registry != nullptr && registry_ == nullptr);
  registry_ = registry;
  hook_token_ = registry_->AddPublishHook([this, table](FileId file) {
    if (file != table) return;
    Clear();
    ++invalidations_;
  });
}

void ResultCache::Clear() {
  for (Partition& part : partitions_) part = Partition();
  std::fill(table_.begin(), table_.end(), Entry());
  used_slots_ = 0;
  arena_.clear();
  live_bytes_ = 0;
  first_live_partition_ = 0;
  size_ = 0;
  resident_size_ = 0;
  SyncBrokerCharge();
}

void ResultCache::SyncBrokerCharge() {
  if (!mem_.valid()) return;
  const uint64_t want = resident_size_ * options_.bytes_per_tuple;
  const uint64_t have = mem_.bytes();
  if (want > have) {
    mem_.Charge(want - have);
  } else if (want < have) {
    mem_.Uncharge(have - want);
  }
}

size_t ResultCache::PartitionOf(int64_t key) const {
  // Partition i holds keys below separators_[i] (and at/above sep[i-1]).
  return static_cast<size_t>(
      std::upper_bound(separators_.begin(), separators_.end(), key) -
      separators_.begin());
}

uint32_t ResultCache::SpillPages(size_t n) const {
  return static_cast<uint32_t>(
      (n + options_.spill_tuples_per_page - 1) / options_.spill_tuples_per_page);
}

void ResultCache::SpillPartition(size_t p) {
  Partition& part = partitions_[p];
  if (!spill_file_created_) {
    spill_file_ = engine_->storage().CreateFile("result_cache_overflow");
    spill_file_created_ = true;
  }
  const uint32_t pages = SpillPages(part.tuples);
  // lint:allow(ctx-charging) — spill I/O is communal maintenance on the
  // engine's shared stream (like write-backs), not a query's scan charge.
  engine_->disk().WriteExtent(spill_file_, next_spill_page_, pages);
  next_spill_page_ += pages;
  part.spilled = true;  // Contents retained in memory; I/O is simulated.
  resident_size_ -= part.tuples;
  ++spill_stats_.spills;
  spill_stats_.spilled_tuples += part.tuples;
  if (options_.spill_events != nullptr) options_.spill_events->Add();
}

void ResultCache::MaybeSpill(size_t keep) {
  if (resident_size_ <= options_.max_resident_tuples) return;
  // Spill from the furthest key range backwards, skipping the partition
  // currently being filled (spilling it would thrash).
  for (size_t p = partitions_.size(); p-- > first_live_partition_;) {
    if (resident_size_ <= options_.max_resident_tuples) break;
    Partition& part = partitions_[p];
    if (p == keep || part.spilled || part.tuples == 0) continue;
    SpillPartition(p);
  }
}

void ResultCache::SpillForPressure(size_t keep) {
  if (!mem_.valid() || !options_.broker->UnderPressure()) return;
  // Same furthest-first order as the budget path: the overflow file is read
  // back "upon reaching the range keys belong to", so far ranges cost least.
  for (size_t p = partitions_.size(); p-- > first_live_partition_;) {
    Partition& part = partitions_[p];
    if (p == keep || part.spilled || part.tuples == 0) continue;
    SpillPartition(p);
    ++spill_stats_.pressure_spills;
    if (options_.pressure_spill_events != nullptr) {
      options_.pressure_spill_events->Add();
    }
    SyncBrokerCharge();  // Uncharge before re-checking global pressure.
    if (!options_.broker->UnderPressure()) break;
  }
}

void ResultCache::Restore(size_t p) {
  Partition& part = partitions_[p];
  SMOOTHSCAN_CHECK(part.spilled);
  const uint32_t pages = SpillPages(part.tuples);
  // lint:allow(ctx-charging) — restore I/O lands on the shared stream, the
  // mirror of the spill charge above.
  engine_->disk().ReadExtent(spill_file_, 0, pages);
  part.spilled = false;
  resident_size_ += part.tuples;
  ++spill_stats_.restores;
  spill_stats_.restored_tuples += part.tuples;
  if (options_.restore_events != nullptr) options_.restore_events->Add();
  SyncBrokerCharge();
}

size_t ResultCache::Find(uint64_t packed) const {
  if (table_.empty()) return 0;
  const size_t mask = table_.size() - 1;
  for (size_t i = Home(packed);; i = (i + 1) & mask) {
    const uint64_t tid = table_[i].tid;
    if (tid == packed) return i;
    if (tid == kEmpty) return table_.size();
  }
}

void ResultCache::Rehash() {
  size_t cap = std::max<size_t>(table_.size(), 16);
  while ((size_ + 1) * 2 > cap) cap *= 2;
  scratch_table_.assign(cap, Entry());
  uint32_t shift = 64;
  for (size_t c = cap; c > 1; c >>= 1) --shift;
  hash_shift_ = shift;
  for (const Entry& e : table_) {
    if (e.tid == kEmpty || e.tid == kTombstone) continue;
    size_t i = Home(e.tid);
    while (scratch_table_[i].tid != kEmpty) i = (i + 1) & (cap - 1);
    scratch_table_[i] = e;
  }
  table_.swap(scratch_table_);
  used_slots_ = size_;
}

void ResultCache::CompactArena() {
  scratch_arena_.clear();
  for (Entry& e : table_) {
    if (e.tid == kEmpty || e.tid == kTombstone) continue;
    const uint32_t offset = static_cast<uint32_t>(scratch_arena_.size());
    scratch_arena_.insert(scratch_arena_.end(), arena_.data() + e.offset,
                          arena_.data() + e.offset + e.size);
    e.offset = offset;
  }
  arena_.swap(scratch_arena_);
}

uint32_t ResultCache::AppendBytes(const uint8_t* data, uint32_t size) {
  if (arena_.size() + size > arena_.capacity() &&
      arena_.size() - live_bytes_ > live_bytes_) {
    CompactArena();
  }
  SMOOTHSCAN_CHECK(arena_.size() + size <= UINT32_MAX);
  const uint32_t offset = static_cast<uint32_t>(arena_.size());
  arena_.insert(arena_.end(), data, data + size);
  live_bytes_ += size;
  return offset;
}

void ResultCache::Remove(size_t i) {
  Entry& e = table_[i];
  e.tid = kTombstone;
  live_bytes_ -= e.size;
  --size_;
  // Nothing live references the arena any more: restart it from the front.
  if (size_ == 0) {
    arena_.clear();
    live_bytes_ = 0;
  }
}

void ResultCache::DropEvictedEntries() {
  for (size_t i = 0; i < table_.size(); ++i) {
    const Entry& e = table_[i];
    if (e.tid == kEmpty || e.tid == kTombstone) continue;
    if (e.partition < first_live_partition_) Remove(i);
  }
}

void ResultCache::Insert(int64_t key, Tid tid, const uint8_t* data,
                         uint32_t size) {
  const size_t p = PartitionOf(key);
  SMOOTHSCAN_CHECK(p >= first_live_partition_);
  Partition& part = partitions_[p];
  if (part.spilled) Restore(p);
  if ((used_slots_ + 1) * 4 > table_.size() * 3) Rehash();
  const uint64_t packed = Pack(tid);
  const size_t mask = table_.size() - 1;
  // Probe to the first empty slot (the Tid may already be cached), reusing
  // the first tombstone passed on the way.
  size_t slot = table_.size();
  for (size_t i = Home(packed);; i = (i + 1) & mask) {
    const uint64_t t = table_[i].tid;
    if (t == packed) return;  // Already cached.
    if (t == kTombstone) {
      if (slot == table_.size()) slot = i;
      continue;
    }
    if (t == kEmpty) {
      if (slot == table_.size()) {
        slot = i;
        ++used_slots_;
      }
      break;
    }
  }
  table_[slot] = Entry{packed, AppendBytes(data, size), size,
                       static_cast<uint32_t>(p)};
  ++part.tuples;
  ++size_;
  ++resident_size_;
  ++inserts_;
  max_size_ = std::max(max_size_, size_);
  MaybeSpill(p);
  SyncBrokerCharge();
  SpillForPressure(p);
}

bool ResultCache::Take(int64_t key, Tid tid, const Schema& schema,
                       Tuple* out) {
  const size_t p = PartitionOf(key);
  if (p < first_live_partition_) return false;
  Partition& part = partitions_[p];
  if (part.spilled) {
    // "Overflow files ... are read upon reaching the range keys belong to."
    Restore(p);
  }
  const size_t i = Find(Pack(tid));
  if (i == table_.size()) return false;
  const Entry& e = table_[i];
  schema.DeserializeInto(arena_.data() + e.offset, e.size, out);
  --part.tuples;
  --resident_size_;
  Remove(i);
  SyncBrokerCharge();
  return true;
}

uint64_t ResultCache::EvictBelow(int64_t key) {
  uint64_t evicted = 0;
  // Partition p's keys are < separators_[p]; it is dead once key >= sep[p].
  while (first_live_partition_ < separators_.size() &&
         key >= separators_[first_live_partition_]) {
    Partition& part = partitions_[first_live_partition_];
    evicted += part.tuples;
    if (!part.spilled) resident_size_ -= part.tuples;
    part = Partition();
    ++first_live_partition_;
  }
  // The scan usually drained a partition before passing it; only leftovers
  // cost a table sweep.
  if (evicted > 0) DropEvictedEntries();
  SyncBrokerCharge();
  return evicted;
}

}  // namespace smoothscan
