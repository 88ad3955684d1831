#include "access/parallel_scan.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "access/index_scan.h"
#include "access/page_id_cache.h"
#include "access/tuple_id_cache.h"
#include "index/bplus_tree.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace smoothscan {

namespace {

void Accumulate(AccessPathStats* into, const AccessPathStats& from) {
  into->tuples_produced += from.tuples_produced;
  into->tuples_inspected += from.tuples_inspected;
  into->heap_pages_probed += from.heap_pages_probed;
}

/// Rounds the morsel size down to a multiple of the read-ahead window (and up
/// to at least one window), so parallel extent requests coincide with the
/// serial scan's.
uint32_t AlignMorselPages(uint32_t morsel_pages, uint32_t read_ahead) {
  if (morsel_pages <= read_ahead) return read_ahead;
  return morsel_pages - morsel_pages % read_ahead;
}

}  // namespace

// ---------------------------------------------------------------------------
// ParallelScan
// ---------------------------------------------------------------------------

ParallelScan::ParallelScan(Engine* engine,
                           std::unique_ptr<ParallelScanKernel> kernel,
                           ParallelScanOptions options)
    : engine_(engine), kernel_(std::move(kernel)), options_(options) {
  SMOOTHSCAN_CHECK(options_.dop >= 1);
  SMOOTHSCAN_CHECK(options_.morsel_pages >= 1);
  // Half-redirected accounting would silently split a query's charges
  // between its private stack and the engine's shared stream.
  SMOOTHSCAN_CHECK((options_.account_disk == nullptr) ==
                   (options_.account_cpu == nullptr));
  if (options_.batch_pool != nullptr) {
    pool_ = options_.batch_pool;
  } else {
    // Owned pool lives as long as the operator, not one Open cycle, so a
    // re-Open starts with every batch of the previous cycle warm.
    BatchPoolOptions pool_options;
    pool_options.recycle = options_.recycle_batches;
    pool_options.metrics = options_.batch_metrics;
    owned_pool_ = std::make_unique<BatchPool>(pool_options, options_.mem);
    pool_ = owned_pool_.get();
  }
}

ParallelScan::~ParallelScan() {
  // Make sure no worker outlives the slots it emits into.
  if (group_ != nullptr) group_->Wait();
}

ExecContext ParallelScan::DefaultContext() const {
  return EngineContext(engine_);
}

TaskScheduler* ParallelScan::scheduler() {
  if (options_.scheduler != nullptr) return options_.scheduler;
  if (owned_scheduler_ == nullptr) {
    owned_scheduler_ = std::make_unique<TaskScheduler>(options_.dop);
  }
  return owned_scheduler_.get();
}

void ParallelScan::EmitTo(size_t slot, PooledBatch&& batch) {
  // Empty batches go straight back to the pool (the handle's destructor).
  if (!batch || batch->empty()) return;
  source_->RecordBatchFill(batch->size(), batch->capacity());
  {
    latch::LatchGuard lock(mu_);
    slots_[slot].batches.push_back(std::move(batch));
  }
  cv_.notify_one();
}

Status ParallelScan::OpenImpl() {
  Finalize();  // A re-Open mid-stream settles the previous cycle first.
  // Finalize() repopulates stats_ with the settled cycle's totals; this cycle
  // starts from zero, as the stats() contract requires.
  stats_ = AccessPathStats();
  {
    // No workers are live here (Finalize waited on the group), but the slot
    // state is latch-guarded, so reset it under the latch like everyone else.
    latch::LatchGuard lock(mu_);
    slots_.clear();
    emit_slot_ = 0;
  }
  contexts_.clear();
  morsel_stats_.clear();
  prolog_stats_ = AccessPathStats();
  group_.reset();
  pending_.Release();
  pending_pos_ = 0;
  finalized_ = false;

  // Observability bind before Plan, mirroring the serial operators'
  // resolve-at-Open (the engine SetObs()s the path before Open).
  kernel_->BindObs(obs() != nullptr ? obs()->metrics : nullptr);

  // Serial prolog on the planning stream. Workers are not running yet, so the
  // prolog emits into slot 0 without locking concerns.
  planning_ = std::make_unique<MorselContext>(engine_, options_.mirror_pool);
  planning_->pool().SetMetricsSink(options_.pool_metrics);
  planning_->SetBatchPool(pool_);
  planning_->SetMemScope(options_.mem);
  std::vector<PooledBatch> prolog;
  std::vector<Morsel> morsels = kernel_->Plan(
      planning_->ctx(),
      [&prolog](PooledBatch&& b) {
        if (b && !b->empty()) prolog.push_back(std::move(b));
      },
      &prolog_stats_);

  {
    latch::LatchGuard lock(mu_);
    slots_.resize(1 + morsels.size());
    for (PooledBatch& b : prolog) slots_[0].batches.push_back(std::move(b));
    slots_[0].done = true;
  }

  morsel_stats_.resize(morsels.size());
  contexts_.reserve(morsels.size());
  for (size_t i = 0; i < morsels.size(); ++i) {
    contexts_.push_back(
        std::make_unique<MorselContext>(engine_, options_.mirror_pool));
    contexts_.back()->pool().SetMetricsSink(options_.pool_metrics);
    contexts_.back()->SetBatchPool(pool_);
    contexts_.back()->SetMemScope(options_.mem);
  }
  source_ = std::make_unique<MorselSource>(std::move(morsels));
  if (source_->size() == 0) return Status::OK();

  // One puller task per worker; each drains the shared morsel source.
  std::vector<TaskScheduler::Task> tasks;
  const uint32_t pullers =
      std::min<uint32_t>(options_.dop, static_cast<uint32_t>(source_->size()));
  tasks.reserve(pullers);
  for (uint32_t t = 0; t < pullers; ++t) {
    tasks.push_back([this] {
      Morsel m;
      while (source_->Next(&m)) {
        MorselContext& mc = *contexts_[m.index];
        // Worker-ring span around the morsel; the index payload lets a
        // Perfetto view line morsels up against the queue they drained from.
        obs::TraceSpan morsel_span(options_.trace, options_.trace_query_id,
                                   "morsel", "morsel_index",
                                   static_cast<int64_t>(m.index));
        morsel_stats_[m.index] = kernel_->RunMorsel(
            m, mc.ctx(),
            [this, &m](PooledBatch&& b) { EmitTo(m.index + 1, std::move(b)); });
        {
          latch::LatchGuard lock(mu_);
          slots_[m.index + 1].done = true;
        }
        cv_.notify_all();
      }
    });
  }
  group_ = scheduler()->Submit(std::move(tasks));
  return Status::OK();
}

bool ParallelScan::NextBatchImpl(TupleBatch* out) {
  while (!out->full()) {
    if (pending_) {
      TupleBatch& pb = *pending_;
      if (out->empty() && pending_pos_ == 0 &&
          pb.capacity() == out->capacity()) {
        // Whole-batch hand-off: the exchange swaps the buffers, not the
        // rows, then recycles the caller's old storage through the pool —
        // the recycled-Value-storage contract the old `pending_ =
        // TupleBatch()` reset silently broke.
        std::swap(*out, pb);
        pending_.Release();
        return !out->empty();
      }
      const size_t n = pb.size();
      // Row swaps, not moves: both batches keep their slot storage.
      while (pending_pos_ < n && !out->full()) {
        out->AppendSlot()->swap(pb.row(pending_pos_++));
      }
      if (pending_pos_ >= n) {
        pending_.Release();
        pending_pos_ = 0;
      }
      continue;
    }
    // Pull the next batch in morsel order, waiting on the producers.
    latch::UniqueLatch lock(mu_);
    for (;;) {
      if (emit_slot_ >= slots_.size()) {
        lock.unlock();
        Finalize();  // End of stream: settle accounting before reporting it.
        return !out->empty();
      }
      Slot& slot = slots_[emit_slot_];
      if (slot.head < slot.batches.size()) {
        pending_ = std::move(slot.batches[slot.head++]);
        pending_pos_ = 0;
        break;
      }
      if (slot.done) {
        slot.batches.clear();
        slot.head = 0;
        ++emit_slot_;
        continue;
      }
      cv_.wait(lock);
    }
  }
  return !out->empty();
}

void ParallelScan::Finalize() {
  if (finalized_) return;
  finalized_ = true;
  if (group_ != nullptr) group_->Wait();
  // Merge in deterministic order: prolog stream first, then morsel streams by
  // index. This fixes the floating-point accumulation order, so engine-level
  // simulated time is bit-identical at any DOP.
  // lint:allow(ctx-charging) — this IS the settle step: the per-morsel
  // context streams merge into the engine stream (or the query's private
  // account) exactly once, in deterministic order.
  SimDisk* const engine_disk = &engine_->disk();
  SimDisk* disk = options_.account_disk != nullptr ? options_.account_disk
                                                   : engine_disk;
  CpuMeter* cpu = options_.account_cpu != nullptr ? options_.account_cpu
                                                  : &engine_->cpu();
  stats_ = AccessPathStats();
  Accumulate(&stats_, prolog_stats_);
  if (planning_ != nullptr) planning_->MergeInto(disk, cpu);
  for (size_t i = 0; i < contexts_.size(); ++i) {
    Accumulate(&stats_, morsel_stats_[i]);
    contexts_[i]->MergeInto(disk, cpu);
  }
  planning_.reset();
  contexts_.clear();
}

void ParallelScan::CloseImpl() {
  Finalize();
  group_.reset();
  // Undrained batches (a consumer that Closed mid-stream) return to the pool
  // warm with the slots; the pool itself outlives the cycle, so a re-Open
  // starts with recycled storage instead of a cold heap.
  {
    latch::LatchGuard lock(mu_);
    slots_.clear();
    slots_.shrink_to_fit();
    emit_slot_ = 0;
  }
  pending_.Release();
  pending_pos_ = 0;
  source_.reset();
}

// ---------------------------------------------------------------------------
// FullScan kernel: page-range morsels, streams seeded at page_begin - 1.
// ---------------------------------------------------------------------------

namespace {

class ParallelFullScanKernel : public ParallelScanKernel {
 public:
  ParallelFullScanKernel(const HeapFile* heap, ScanPredicate predicate,
                         FullScanOptions scan_options, uint32_t morsel_pages)
      : heap_(heap),
        predicate_(std::move(predicate)),
        scan_options_(scan_options),
        morsel_pages_(
            AlignMorselPages(morsel_pages, scan_options.read_ahead_pages)) {}

  const char* name() const override { return "ParallelFullScan"; }

  std::vector<Morsel> Plan(const ExecContext&, const EmitFn&,
                           AccessPathStats*) override {
    return MorselSource::PageRanges(
        static_cast<PageId>(heap_->num_pages()), morsel_pages_);
  }

  AccessPathStats RunMorsel(const Morsel& m, const ExecContext& ctx,
                            const EmitFn& emit) override {
    // Seed the morsel's stream at the page the serial scan would have just
    // read, so the summed parallel charges equal the serial charges exactly.
    if (m.page_begin > 0) {
      ctx.disk->SeedPosition(heap_->file_id(), m.page_begin - 1);
    }
    FullScanOptions options = scan_options_;
    options.page_begin = m.page_begin;
    options.page_end = m.page_end;
    FullScan scan(heap_, predicate_, options);
    scan.SetExecContext(&ctx);
    SMOOTHSCAN_CHECK(scan.Open().ok());
    PooledBatch batch = ctx.batch_pool->Acquire();
    while (scan.NextBatch(batch.get())) {
      emit(std::move(batch));
      batch = ctx.batch_pool->Acquire();
    }
    const AccessPathStats stats = scan.stats();
    scan.Close();
    return stats;
  }

 private:
  const HeapFile* heap_;
  ScanPredicate predicate_;
  FullScanOptions scan_options_;
  uint32_t morsel_pages_;
};

// ---------------------------------------------------------------------------
// IndexScan kernel: key-range morsels from the leaf-level histogram.
// ---------------------------------------------------------------------------

class ParallelIndexScanKernel : public ParallelScanKernel {
 public:
  ParallelIndexScanKernel(const BPlusTree* index, ScanPredicate predicate,
                          uint32_t max_key_morsels)
      : index_(index),
        predicate_(std::move(predicate)),
        max_key_morsels_(max_key_morsels) {}

  const char* name() const override { return "ParallelIndexScan"; }

  std::vector<Morsel> Plan(const ExecContext&, const EmitFn&,
                           AccessPathStats*) override {
    return MorselSource::KeyRanges(index_->PartitionKeyRange(
        predicate_.lo, predicate_.hi, max_key_morsels_));
  }

  AccessPathStats RunMorsel(const Morsel& m, const ExecContext& ctx,
                            const EmitFn& emit) override {
    ScanPredicate predicate = predicate_;
    predicate.lo = m.key_lo;
    predicate.hi = m.key_hi;
    IndexScan scan(index_, std::move(predicate));
    scan.SetExecContext(&ctx);
    SMOOTHSCAN_CHECK(scan.Open().ok());
    PooledBatch batch = ctx.batch_pool->Acquire();
    while (scan.NextBatch(batch.get())) {
      emit(std::move(batch));
      batch = ctx.batch_pool->Acquire();
    }
    const AccessPathStats stats = scan.stats();
    scan.Close();
    return stats;
  }

 private:
  const BPlusTree* index_;
  ScanPredicate predicate_;
  uint32_t max_key_morsels_;
};

// ---------------------------------------------------------------------------
// SortScan kernel: serial leaf walk + TID sort in the prolog, page-range
// morsels over the sorted-TID array for the nearly sequential heap phase.
// ---------------------------------------------------------------------------

class ParallelSortScanKernel : public ParallelScanKernel {
 public:
  ParallelSortScanKernel(const BPlusTree* index, ScanPredicate predicate,
                         uint32_t morsel_pages)
      : index_(index),
        predicate_(std::move(predicate)),
        morsel_pages_(AlignMorselPages(morsel_pages, kSortScanChunkPages)) {}

  const char* name() const override { return "ParallelSortScan"; }

  std::vector<Morsel> Plan(const ExecContext& planning, const EmitFn&,
                           AccessPathStats*) override {
    tids_.clear();
    for (BPlusTree::Iterator it = index_->Seek(predicate_.lo, &planning);
         it.Valid() && it.key() < predicate_.hi; it.Next()) {
      tids_.push_back(it.tid());
    }
    planning.cpu->ChargeSort(tids_.size());
    std::sort(tids_.begin(), tids_.end());

    // One morsel per populated page-range bucket; each morsel's span of the
    // sorted array is fixed here, so workers touch disjoint read-only slices.
    std::vector<Morsel> morsels;
    spans_.clear();
    size_t i = 0;
    while (i < tids_.size()) {
      const PageId bucket = tids_[i].page_id / morsel_pages_;
      size_t j = i;
      while (j < tids_.size() && tids_[j].page_id / morsel_pages_ == bucket) {
        ++j;
      }
      Morsel m;
      m.index = static_cast<uint32_t>(morsels.size());
      m.page_begin = bucket * morsel_pages_;
      m.page_end = m.page_begin + morsel_pages_;
      morsels.push_back(m);
      spans_.emplace_back(i, j);
      i = j;
    }
    return morsels;
  }

  AccessPathStats RunMorsel(const Morsel& m, const ExecContext& ctx,
                            const EmitFn& emit) override {
    AccessPathStats stats;
    const HeapFile* heap = index_->heap();
    const auto [begin, end] = spans_[m.index];
    PooledBatch batch = ctx.batch_pool->Acquire();
    uint64_t inspected = 0;
    uint64_t produced = 0;
    size_t i = begin;
    while (i < end) {
      // The serial phase 3's extent coalescing, applied to the morsel's span.
      const SortScanExtent extent = CoalesceSortedTidExtent(tids_, i, end);
      const size_t j = extent.last_entry;
      ctx.pool->FetchExtent(heap->file_id(), tids_[i].page_id,
                            extent.num_pages);
      stats.heap_pages_probed += extent.num_pages;
      for (size_t k = i; k <= j; ++k) {
        Tuple* tuple = batch->AppendSlot();
        heap->ReadInto(tids_[k], ctx, tuple);  // Resident: pool hit.
        ++inspected;
        if (predicate_.residual && !predicate_.residual(*tuple)) {
          batch->PopLast();
          continue;
        }
        ++produced;
        if (batch->full()) {
          emit(std::move(batch));
          batch = ctx.batch_pool->Acquire();
        }
      }
      i = j + 1;
    }
    emit(std::move(batch));
    stats.tuples_inspected = inspected;
    stats.tuples_produced = produced;
    ctx.cpu->ChargeInspect(inspected);
    ctx.cpu->ChargeProduce(produced);
    return stats;
  }

 private:
  const BPlusTree* index_;
  ScanPredicate predicate_;
  uint32_t morsel_pages_;
  std::vector<Tid> tids_;
  std::vector<std::pair<size_t, size_t>> spans_;
};

// ---------------------------------------------------------------------------
// SwitchScan kernel: the index phase is inherently serial (the switch fires
// on the *global* produced cardinality), so it runs in the prolog; if the
// switch fires, the post-switch full scan is parallelized over page-range
// morsels, all sharing the read-only Tuple ID Cache built before the switch.
// ---------------------------------------------------------------------------

class ParallelSwitchScanKernel : public ParallelScanKernel {
 public:
  ParallelSwitchScanKernel(const BPlusTree* index, ScanPredicate predicate,
                           SwitchScanOptions scan_options,
                           uint32_t morsel_pages)
      : index_(index),
        predicate_(std::move(predicate)),
        scan_options_(scan_options),
        morsel_pages_(
            AlignMorselPages(morsel_pages, scan_options.read_ahead_pages)) {}

  const char* name() const override { return "ParallelSwitchScan"; }

  std::vector<Morsel> Plan(const ExecContext& planning, const EmitFn& emit,
                           AccessPathStats* stats) override {
    produced_.Clear();
    bool switched = false;
    const HeapFile* heap = index_->heap();
    PooledBatch batch = planning.batch_pool->Acquire();
    uint64_t inspected = 0;
    uint64_t produced = 0;
    uint64_t cache_ops = 0;
    BPlusTree::Iterator it = index_->Seek(predicate_.lo, &planning);
    while (it.Valid() && it.key() < predicate_.hi) {
      const Tid tid = it.tid();
      Tuple* tuple = batch->AppendSlot();
      heap->ReadInto(tid, planning, tuple);
      ++stats->heap_pages_probed;
      ++inspected;
      if (predicate_.residual && !predicate_.residual(*tuple)) {
        batch->PopLast();
        it.Next();
        continue;
      }
      if (produced >= scan_options_.estimated_cardinality) {
        batch->PopLast();
        switched = true;  // Estimate violated: abandon the index.
        break;
      }
      it.Next();
      produced_.Insert(tid);
      ++cache_ops;
      ++produced;
      if (batch->full()) {
        emit(std::move(batch));
        batch = planning.batch_pool->Acquire();
      }
    }
    emit(std::move(batch));
    stats->tuples_inspected += inspected;
    stats->tuples_produced += produced;
    planning.cpu->ChargeInspect(inspected);
    planning.cpu->ChargeCacheOp(cache_ops);
    planning.cpu->ChargeProduce(produced);
    if (!switched) return {};
    return MorselSource::PageRanges(
        static_cast<PageId>(heap->num_pages()), morsel_pages_);
  }

  AccessPathStats RunMorsel(const Morsel& m, const ExecContext& ctx,
                            const EmitFn& emit) override {
    AccessPathStats stats;
    const HeapFile* heap = index_->heap();
    const Schema& schema = heap->schema();
    if (m.page_begin > 0) {
      ctx.disk->SeedPosition(heap->file_id(), m.page_begin - 1);
    }
    PooledBatch batch = ctx.batch_pool->Acquire();
    uint64_t inspected = 0;
    uint64_t produced = 0;
    uint64_t cache_ops = 0;
    PageId window_end = m.page_begin;
    for (PageId pid = m.page_begin; pid < m.page_end; ++pid) {
      if (pid >= window_end) {
        const uint32_t window = std::min<uint32_t>(
            scan_options_.read_ahead_pages, m.page_end - window_end);
        ctx.pool->FetchExtent(heap->file_id(), window_end, window);
        window_end += window;
      }
      const PageGuard guard = ctx.pool->Pin(heap->file_id(), pid);
      const Page& page = *guard;
      ++stats.heap_pages_probed;
      for (uint16_t s = 0; s < page.num_slots(); ++s) {
        uint32_t size = 0;
        const uint8_t* data = page.GetTuple(s, &size);
        if (data == nullptr) continue;  // Tombstoned slot.
        ++inspected;
        const int64_t key =
            schema.ReadInt64Column(data, size, predicate_.column);
        if (!predicate_.MatchesKey(key)) continue;
        Tuple* slot = batch->AppendSlot();
        schema.DeserializeInto(data, size, slot);
        if (predicate_.residual && !predicate_.residual(*slot)) {
          batch->PopLast();
          continue;
        }
        // Suppress tuples already produced pre-switch (read-only lookups:
        // the cache was frozen when the prolog finished).
        ++cache_ops;
        if (produced_.Contains(Tid{pid, s})) {
          batch->PopLast();
          continue;
        }
        ++produced;
        if (batch->full()) {
          emit(std::move(batch));
          batch = ctx.batch_pool->Acquire();
        }
      }
    }
    emit(std::move(batch));
    stats.tuples_inspected = inspected;
    stats.tuples_produced = produced;
    ctx.cpu->ChargeInspect(inspected);
    ctx.cpu->ChargeCacheOp(cache_ops);
    ctx.cpu->ChargeProduce(produced);
    return stats;
  }

 private:
  const BPlusTree* index_;
  ScanPredicate predicate_;
  SwitchScanOptions scan_options_;
  uint32_t morsel_pages_;
  TupleIdCache produced_;
};

// ---------------------------------------------------------------------------
// SmoothScan kernel: page-range morsels; the prolog buckets the index entries
// by owning morsel, workers morph within their page range. The Page ID Cache
// is one bitmap shared by all workers under atomics; region-growth decisions
// use each stream's own selectivity counters (kept in per-morsel
// SmoothScanStats slots), which is what keeps the policy deterministic — a
// cross-worker counter read would make region sizes depend on scheduling.
// ---------------------------------------------------------------------------

class ParallelSmoothScanKernel : public ParallelScanKernel {
 public:
  ParallelSmoothScanKernel(const BPlusTree* index, ScanPredicate predicate,
                           SmoothScanOptions scan_options,
                           uint32_t morsel_pages, obs::TraceCollector* trace,
                           uint64_t trace_query_id)
      : index_(index),
        predicate_(std::move(predicate)),
        scan_options_(scan_options),
        morsel_pages_(morsel_pages),
        trace_(trace),
        trace_query_id_(trace_query_id) {}

  const char* name() const override { return "ParallelSmoothScan"; }

  void BindObs(obs::MetricsRegistry* metrics) override {
    // Same counter names as the serial operator: the registry aggregates
    // serial and parallel smooth activity into one smooth.* family. (No
    // smooth.morph_triggers bump here: the parallel kernel is eager-only, and
    // eager never fires the deferred trigger — exactly like serial Eager.)
    c_region_grows_ = nullptr;
    c_region_shrinks_ = nullptr;
    c_page_cache_hits_ = nullptr;
    if (metrics != nullptr) {
      c_region_grows_ = metrics->counter("smooth.region_grows");
      c_region_shrinks_ = metrics->counter("smooth.region_shrinks");
      c_page_cache_hits_ = metrics->counter("smooth.page_cache_hits");
    }
  }

  SmoothScanStats smooth_stats() const override {
    // Morsel-order merge, like Finalize's accounting merge.
    SmoothScanStats total;
    for (const SmoothScanStats& ss : sstats_) {
      total.card_mode1 += ss.card_mode1;
      total.card_mode2 += ss.card_mode2;
      total.probes += ss.probes;
      total.expansions += ss.expansions;
      total.shrinks += ss.shrinks;
      total.pages_seen += ss.pages_seen;
      total.pages_with_results += ss.pages_with_results;
      total.morph_checked_pages += ss.morph_checked_pages;
      total.morph_result_pages += ss.morph_result_pages;
      total.page_cache_hits += ss.page_cache_hits;
    }
    return total;
  }

  std::vector<Morsel> Plan(const ExecContext& planning, const EmitFn&,
                           AccessPathStats*) override {
    const PageId num_pages = static_cast<PageId>(index_->heap()->num_pages());
    std::vector<Morsel> morsels =
        MorselSource::PageRanges(num_pages, morsel_pages_);
    shared_cache_ = std::make_unique<ConcurrentPageIdCache>(num_pages);
    buckets_.assign(morsels.size(), {});
    sstats_.assign(morsels.size(), SmoothScanStats());
    // The full leaf traversal of the qualifying range (charged once, like the
    // serial operator's), bucketed by the heap page each entry targets.
    for (BPlusTree::Iterator it = index_->Seek(predicate_.lo, &planning);
         it.Valid() && it.key() < predicate_.hi; it.Next()) {
      buckets_[it.tid().page_id / morsel_pages_].push_back(it.tid());
    }
    return morsels;
  }

  AccessPathStats RunMorsel(const Morsel& m, const ExecContext& ctx,
                            const EmitFn& emit) override {
    AccessPathStats stats;
    SmoothScanStats& ss = sstats_[m.index];
    const HeapFile* heap = index_->heap();
    const Schema& schema = heap->schema();
    uint32_t region_pages = 1;
    PooledBatch batch = ctx.batch_pool->Acquire();

    for (const Tid target : buckets_[m.index]) {
      ctx.cpu->ChargeCacheOp();  // Page ID Cache bit check.
      if (shared_cache_->IsMarked(target.page_id)) {
        // Target already harvested (the X marks in Fig. 3) — the same skip
        // the serial operator counts as a page-cache hit.
        ++ss.page_cache_hits;
        if (c_page_cache_hits_ != nullptr) c_page_cache_hits_->Add();
        continue;
      }

      // Fetch the morphing region anchored at the target, clipped to the
      // morsel's page range, skipping already-harvested pages.
      const uint32_t want =
          scan_options_.enable_flattening ? region_pages : 1;
      const uint32_t count =
          std::min<uint32_t>(want, m.page_end - target.page_id);
      for (uint32_t i = 0; i < count;) {
        if (shared_cache_->IsMarked(target.page_id + i)) {
          ++i;
          continue;
        }
        uint32_t run = 1;
        while (i + run < count &&
               !shared_cache_->IsMarked(target.page_id + i + run)) {
          ++run;
        }
        ctx.pool->FetchExtent(heap->file_id(), target.page_id + i, run);
        i += run;
      }
      ++ss.probes;

      uint64_t inspected = 0;
      uint64_t produced = 0;
      uint64_t cache_ops = 0;
      uint64_t region_pages_seen = 0;
      uint64_t region_result_pages = 0;
      for (uint32_t i = 0; i < count; ++i) {
        const PageId pid = target.page_id + i;
        // Workers own disjoint page ranges, so this worker is the only
        // writer of these bits; Mark returns false only for pages this very
        // morsel harvested already.
        ++cache_ops;
        if (!shared_cache_->Mark(pid)) continue;
        ++stats.heap_pages_probed;
        ++region_pages_seen;
        const PageGuard guard = ctx.pool->Pin(heap->file_id(), pid);
        const Page& page = *guard;
        bool page_has_result = false;
        for (uint16_t s = 0; s < page.num_slots(); ++s) {
          uint32_t size = 0;
          const uint8_t* data = page.GetTuple(s, &size);
          if (data == nullptr) continue;  // Tombstoned slot.
          ++inspected;
          const int64_t key =
              schema.ReadInt64Column(data, size, predicate_.column);
          if (!predicate_.MatchesKey(key)) continue;
          Tuple* tuple = batch->AppendSlot();
          schema.DeserializeInto(data, size, tuple);
          if (predicate_.residual && !predicate_.residual(*tuple)) {
            batch->PopLast();
            continue;
          }
          page_has_result = true;
          if (count > 1) {
            ++ss.card_mode2;
          } else {
            ++ss.card_mode1;
          }
          ++produced;
          if (batch->full()) {
            emit(std::move(batch));
            batch = ctx.batch_pool->Acquire();
          }
        }
        if (page_has_result) ++region_result_pages;
        if (pid != target.page_id) {
          ++ss.morph_checked_pages;
          if (page_has_result) ++ss.morph_result_pages;
        }
      }
      stats.tuples_inspected += inspected;
      stats.tuples_produced += produced;
      ctx.cpu->ChargeInspect(inspected);
      ctx.cpu->ChargeProduce(produced);
      ctx.cpu->ChargeCacheOp(cache_ops);
      if (scan_options_.enable_flattening) {
        // Serial policy applied to this stream's own observations (Eqs. 1-2
        // over the morsel's pages) — deterministic at any DOP.
        const uint32_t region_before = region_pages;
        region_pages = MorphRegionStep(
            scan_options_.policy, region_pages, scan_options_.max_region_pages,
            ss.pages_seen, ss.pages_with_results, region_pages_seen,
            region_result_pages, &ss.expansions, &ss.shrinks);
        // Counter-backed morph metrics at any DOP (previously trace-only
        // here): one bump per region change, like the serial operator.
        if (region_pages > region_before) {
          if (c_region_grows_ != nullptr) c_region_grows_->Add();
        } else if (region_pages < region_before) {
          if (c_region_shrinks_ != nullptr) c_region_shrinks_->Add();
        }
        if (trace_ != nullptr && region_pages != region_before) {
          // Morph timeline at any DOP: each worker's instants land on its
          // own ring. Bookkeeping only — the step above already settled.
          trace_->Instant(
              trace_query_id_,
              region_pages > region_before ? "morph_grow" : "morph_shrink",
              "region_pages", region_pages, "morsel",
              static_cast<int64_t>(m.index), nullptr, 0, "policy",
              MorphPolicyToString(scan_options_.policy));
        }
      }
      ss.pages_seen += region_pages_seen;
      ss.pages_with_results += region_result_pages;
    }
    emit(std::move(batch));
    return stats;
  }

 private:
  const BPlusTree* index_;
  ScanPredicate predicate_;
  SmoothScanOptions scan_options_;
  uint32_t morsel_pages_;
  obs::TraceCollector* trace_;
  uint64_t trace_query_id_;

  // Registry counters (null without a bound registry). Relaxed adds from
  // worker threads — pure bookkeeping, never policy input.
  obs::Counter* c_region_grows_ = nullptr;
  obs::Counter* c_region_shrinks_ = nullptr;
  obs::Counter* c_page_cache_hits_ = nullptr;

  std::unique_ptr<ConcurrentPageIdCache> shared_cache_;
  std::vector<std::vector<Tid>> buckets_;
  /// Per-morsel operator counters; slot i is written only by morsel i's
  /// worker and carries that stream's policy inputs (Eqs. 1-2).
  std::vector<SmoothScanStats> sstats_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

std::unique_ptr<ParallelScan> MakeParallelFullScan(
    const HeapFile* heap, ScanPredicate predicate, FullScanOptions scan_options,
    ParallelScanOptions options) {
  return std::make_unique<ParallelScan>(
      heap->engine(),
      std::make_unique<ParallelFullScanKernel>(
          heap, std::move(predicate), scan_options, options.morsel_pages),
      options);
}

std::unique_ptr<ParallelScan> MakeParallelIndexScan(
    const BPlusTree* index, ScanPredicate predicate,
    ParallelScanOptions options) {
  return std::make_unique<ParallelScan>(
      index->heap()->engine(),
      std::make_unique<ParallelIndexScanKernel>(index, std::move(predicate),
                                                options.max_key_morsels),
      options);
}

std::unique_ptr<ParallelScan> MakeParallelSortScan(
    const BPlusTree* index, ScanPredicate predicate,
    SortScanOptions scan_options, ParallelScanOptions options) {
  // Cross-morsel key order would need a merge above the workers; the serial
  // SortScan covers order-preserving plans.
  if (scan_options.preserve_order) return nullptr;
  return std::make_unique<ParallelScan>(
      index->heap()->engine(),
      std::make_unique<ParallelSortScanKernel>(index, std::move(predicate),
                                               options.morsel_pages),
      options);
}

std::unique_ptr<ParallelScan> MakeParallelSwitchScan(
    const BPlusTree* index, ScanPredicate predicate,
    SwitchScanOptions scan_options, ParallelScanOptions options) {
  return std::make_unique<ParallelScan>(
      index->heap()->engine(),
      std::make_unique<ParallelSwitchScanKernel>(
          index, std::move(predicate), scan_options, options.morsel_pages),
      options);
}

std::unique_ptr<ParallelScan> MakeParallelSmoothScan(
    const BPlusTree* index, ScanPredicate predicate,
    SmoothScanOptions scan_options, ParallelScanOptions options) {
  // The pre-trigger Mode 0 phase gates on the *global* produced cardinality
  // and the Result Cache needs cross-morsel key order; the parallel variant
  // covers the paper's default Eager + unordered configuration. Everything
  // else keeps the serial operator (null, per the factory contract).
  if (scan_options.trigger != MorphTrigger::kEager) return nullptr;
  if (scan_options.preserve_order) return nullptr;
  return std::make_unique<ParallelScan>(
      index->heap()->engine(),
      std::make_unique<ParallelSmoothScanKernel>(
          index, std::move(predicate), scan_options, options.morsel_pages,
          options.trace, options.trace_query_id),
      options);
}

}  // namespace smoothscan
