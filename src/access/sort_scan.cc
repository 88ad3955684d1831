#include "access/sort_scan.h"

#include <algorithm>

namespace smoothscan {

SortScanExtent CoalesceSortedTidExtent(const std::vector<Tid>& tids, size_t i,
                                       size_t end) {
  SortScanExtent extent;
  size_t j = i;
  const PageId first_page = tids[i].page_id;
  PageId last_page = first_page;
  extent.num_pages = 1;
  while (j + 1 < end &&
         (tids[j + 1].page_id == last_page ||
          tids[j + 1].page_id == last_page + 1) &&
         tids[j + 1].page_id - first_page < kSortScanChunkPages) {
    if (tids[j + 1].page_id == last_page + 1) {
      ++extent.num_pages;
      last_page = tids[j + 1].page_id;
    }
    ++j;
  }
  extent.last_entry = j;
  return extent;
}

SortScan::SortScan(const BPlusTree* index, ScanPredicate predicate,
                   SortScanOptions options)
    : index_(index), predicate_(std::move(predicate)), options_(options) {
  SMOOTHSCAN_CHECK(predicate_.column == index_->key_column());
}

ExecContext SortScan::DefaultContext() const {
  return EngineContext(index_->heap()->engine());
}

Status SortScan::OpenImpl() {
  const HeapFile* heap = index_->heap();
  const Schema& schema = heap->schema();
  const ExecContext& ctx = this->ctx();
  rows_.Clear();
  next_row_ = 0;
  pages_fetched_ = 0;

  // Phase 1: harvest qualifying TIDs from the index leaves.
  tids_.clear();
  for (BPlusTree::Iterator it = index_->Seek(predicate_.lo, &ctx);
       it.Valid() && it.key() < predicate_.hi; it.Next()) {
    tids_.push_back(it.tid());
  }

  // Phase 2: sort TIDs in heap order — the blocking pre-sort.
  ctx.cpu->ChargeSort(tids_.size());
  std::sort(tids_.begin(), tids_.end());

  // Phase 3: fetch the result pages, coalescing consecutive page ids into
  // single extent requests ("easily detected by disk prefetchers"), and
  // buffer the qualifying tuples' bytes in Tid order.
  uint64_t inspected = 0;
  uint64_t produced = 0;
  size_t i = 0;
  while (i < tids_.size()) {
    // Extent of consecutive distinct pages starting at tids_[i].
    const SortScanExtent extent =
        CoalesceSortedTidExtent(tids_, i, tids_.size());
    const size_t j = extent.last_entry;
    ctx.pool->FetchExtent(heap->file_id(), tids_[i].page_id,
                          extent.num_pages);
    pages_fetched_ += extent.num_pages;
    stats_.heap_pages_probed += extent.num_pages;
    for (size_t k = i; k <= j; ++k) {
      const uint8_t* data = nullptr;
      uint32_t size = 0;
      // Resident: buffer-pool hit.
      const PageGuard page = heap->ReadBytes(tids_[k], ctx, &data, &size);
      ++inspected;
      if (predicate_.residual) {
        schema.DeserializeInto(data, size, &residual_scratch_);
        if (!predicate_.residual(residual_scratch_)) continue;
      }
      ++produced;
      rows_.Add(schema.ReadInt64Column(data, size, predicate_.column), data,
                size);
    }
    i = j + 1;
  }
  stats_.tuples_inspected += inspected;
  ctx.cpu->ChargeInspect(inspected);
  ctx.cpu->ChargeProduce(produced);

  // Phase 4 (optional): posterior sort restoring the interesting order.
  if (options_.preserve_order) {
    ctx.cpu->ChargeSort(rows_.size());
    rows_.SortByKey();
  }
  return Status::OK();
}

bool SortScan::NextBatchImpl(TupleBatch* out) {
  const size_t before = out->size();
  rows_.Emit(index_->heap()->schema(), &next_row_, out);
  stats_.tuples_produced += out->size() - before;
  return !out->empty();
}

PosteriorSort::PosteriorSort(std::unique_ptr<AccessPath> input,
                             const HeapFile* heap, int key_column)
    : input_(std::move(input)), heap_(heap), key_column_(key_column) {}

ExecContext PosteriorSort::DefaultContext() const {
  return EngineContext(heap_->engine());
}

Status PosteriorSort::OpenImpl() {
  rows_.Clear();
  next_row_ = 0;
  // The input charges this path's stream: the query's, when one is set.
  input_->SetExecContext(&ctx());
  input_->SetObs(obs());
  Status status = input_->Open();
  if (!status.ok()) return status;
  const Schema& schema = heap_->schema();
  while (input_->NextBatch(&drain_)) {
    for (size_t i = 0; i < drain_.size(); ++i) {
      const Tuple& tuple = drain_.row(i);
      rows_.Add(tuple[key_column_].AsInt64(), tuple, schema);
    }
  }
  stats_ = input_->stats();
  input_->Close();
  ctx().cpu->ChargeSort(rows_.size());
  rows_.SortByKey();
  return Status::OK();
}

bool PosteriorSort::NextBatchImpl(TupleBatch* out) {
  rows_.Emit(heap_->schema(), &next_row_, out);
  return !out->empty();
}

void PosteriorSort::CloseImpl() {
  input_->Close();
  rows_.Clear();
  next_row_ = 0;
}

}  // namespace smoothscan
