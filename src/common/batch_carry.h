// BatchCarry: the shared buffering behind the batch-first execution
// interfaces. AccessPath and Operator both expose {Open, NextBatch, Next,
// Close} over a subclass's NextBatchImpl; the carry buffer, the mixed
// Next()/NextBatch() hand-off, and the end-of-stream latch are identical in
// both and subtle enough that they must not be maintained twice — this class
// is that single copy.

#ifndef SMOOTHSCAN_COMMON_BATCH_CARRY_H_
#define SMOOTHSCAN_COMMON_BATCH_CARRY_H_

#include "common/tuple_batch.h"

namespace smoothscan {

class BatchCarry {
 public:
  /// Open(): forget buffered tuples and re-arm the stream.
  void Reset() {
    carry_.Clear();
    pos_ = 0;
    exhausted_ = false;
  }

  /// Close(): drop buffered tuples and latch end-of-stream until Reset().
  void MarkClosed() {
    carry_.Clear();
    pos_ = 0;
    exhausted_ = true;
  }

  /// Batch pull. `impl(TupleBatch*)` is the producer (NextBatchImpl);
  /// tuples buffered by Next() are re-emitted first so mixing the two pull
  /// styles never drops or duplicates a row. With carried tuples present the
  /// batch is not topped up from `impl` — the carry is already a full
  /// batch's worth of lookahead.
  template <typename Impl>
  bool NextBatch(TupleBatch* out, Impl&& impl) {
    out->Clear();
    while (pos_ < carry_.size() && !out->full()) {
      out->AppendSlot()->swap(carry_.row(pos_++));
    }
    if (pos_ >= carry_.size()) {
      carry_.Clear();
      pos_ = 0;
    }
    if (out->empty() && !exhausted_) {
      if (!impl(out)) exhausted_ = true;
    }
    return !out->empty();
  }

  /// Tuple-at-a-time pull over the same stream.
  template <typename Impl>
  bool Next(Tuple* out, Impl&& impl) {
    if (pos_ >= carry_.size()) {
      if (exhausted_) return false;
      carry_.Clear();
      pos_ = 0;
      if (!impl(&carry_)) {
        exhausted_ = true;
        return false;
      }
    }
    *out = carry_.Take(pos_++);
    return true;
  }

 private:
  TupleBatch carry_;
  size_t pos_ = 0;
  bool exhausted_ = false;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_COMMON_BATCH_CARRY_H_
