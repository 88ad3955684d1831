// SortScan (PostgreSQL's Bitmap Heap Scan; Section II). Collects all
// qualifying TIDs from the index, sorts them in heap-page order, then fetches
// the matching pages (and only those) with a nearly sequential pattern. The
// price is a blocking execution model, and — when the consumer needs the
// index order — a posterior sort of the result tuples. The materialized
// result is kept as encoded page bytes (EncodedRows) and decoded into the
// caller's batch slots on emit.
//
// PosteriorSort is that same posterior sort as a plan step of its own: it
// gives order-destroying paths (FullScan, SwitchScan) the index's interesting
// order when the consumer requires it.

#ifndef SMOOTHSCAN_ACCESS_SORT_SCAN_H_
#define SMOOTHSCAN_ACCESS_SORT_SCAN_H_

#include <memory>
#include <vector>

#include "access/access_path.h"
#include "access/encoded_rows.h"
#include "index/bplus_tree.h"

namespace smoothscan {

struct SortScanOptions {
  /// Re-sort the results by index key before emitting, restoring the
  /// "interesting order" that TID sorting destroyed (Section II's discussion
  /// of the broken natural index ordering).
  bool preserve_order = false;
};

/// Extent-coalescing cap of the sorted-TID heap phase: chunks stay well below
/// the buffer-pool capacity so a long run of consecutive result pages is
/// consumed before any of it is evicted. Shared by the serial phase 3 and the
/// parallel SortScan kernel so the two cannot silently diverge.
inline constexpr uint32_t kSortScanChunkPages = 64;

/// Coalesced extent starting at `tids[i]` within `tids[i, end)` (page-sorted):
/// entries sharing one physical request because each targets the same or the
/// next page, capped at kSortScanChunkPages.
struct SortScanExtent {
  size_t last_entry = 0;    ///< Last entry index covered (inclusive).
  uint32_t num_pages = 0;   ///< Distinct pages spanned, from tids[i].page_id.
};
SortScanExtent CoalesceSortedTidExtent(const std::vector<Tid>& tids, size_t i,
                                       size_t end);

class SortScan : public AccessPath {
 public:
  SortScan(const BPlusTree* index, ScanPredicate predicate,
           SortScanOptions options = SortScanOptions());

  const char* name() const override { return "SortScan"; }

  /// Heap pages fetched (distinct by construction).
  uint64_t pages_fetched() const { return pages_fetched_; }

 protected:
  /// Blocking: performs the index traversal, TID sort and all heap I/O.
  Status OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  /// Drops the buffered rows; the buffers keep their storage for the next
  /// Open cycle.
  void CloseImpl() override {
    rows_.Clear();
    next_row_ = 0;
  }
  ExecContext DefaultContext() const override;

 private:
  const BPlusTree* index_;
  ScanPredicate predicate_;
  SortScanOptions options_;

  std::vector<Tid> tids_;
  EncodedRows rows_;
  size_t next_row_ = 0;
  Tuple residual_scratch_;
  uint64_t pages_fetched_ = 0;
};

/// Posterior key sort over another access path: Open drains `input`,
/// buffers its rows as encoded bytes and sorts them by the key column,
/// charging ChargeSort(rows) to this path's ExecContext — the cost the
/// chooser prices as its sort penalty. Ties keep the input's order, which
/// for the wrapped paths is Tid order, so the output follows the index's
/// (key, Tid) order. Reports the input's name and stats: the plan is still
/// that path, plus its sort.
class PosteriorSort : public AccessPath {
 public:
  /// `heap` is the table `input` reads; `key_column` its INT64/DATE key.
  PosteriorSort(std::unique_ptr<AccessPath> input, const HeapFile* heap,
                int key_column);

  const char* name() const override { return input_->name(); }

 protected:
  Status OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override;
  ExecContext DefaultContext() const override;

 private:
  std::unique_ptr<AccessPath> input_;
  const HeapFile* heap_;
  int key_column_;
  TupleBatch drain_;
  EncodedRows rows_;
  size_t next_row_ = 0;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_ACCESS_SORT_SCAN_H_
