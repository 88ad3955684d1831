// EncodedRows: a buffer of result tuples kept in their encoded page format
// (the Schema serialization) instead of as decoded Tuples. Rows are copied
// in as bytes, optionally reordered by key, and decoded only on emit —
// straight into the caller's recycled TupleBatch slots. Clear() keeps the
// byte and entry storage, so a buffer that is refilled performs no heap
// allocation once it has grown to its working size.
//
// Users: SortScan's materialized result (and its posterior key sort), the
// posterior sort that gives ordered FullScan / SwitchScan plans their key
// order (PosteriorSort), and Smooth Scan's overflow of a morphing region
// that does not fit the caller's batch.

#ifndef SMOOTHSCAN_ACCESS_ENCODED_ROWS_H_
#define SMOOTHSCAN_ACCESS_ENCODED_ROWS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/tuple_batch.h"
#include "storage/schema.h"

namespace smoothscan {

class EncodedRows {
 public:
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Forgets every row; keeps the storage for the next fill.
  void Clear() {
    bytes_.clear();
    entries_.clear();
  }

  /// Appends a copy of one encoded tuple under `key`.
  void Add(int64_t key, const uint8_t* data, uint32_t size) {
    entries_.push_back({key, bytes_.size(), size});
    bytes_.insert(bytes_.end(), data, data + size);
  }

  /// Appends `tuple`, encoded with `schema`, under `key`.
  void Add(int64_t key, const Tuple& tuple, const Schema& schema) {
    const size_t offset = bytes_.size();
    schema.Serialize(tuple, &bytes_);
    entries_.push_back(
        {key, offset, static_cast<uint32_t>(bytes_.size() - offset)});
  }

  /// Orders the rows by key. Ties keep their arrival order (the byte offset
  /// grows with every Add), which every user feeds in Tid order — so the
  /// result is the index's (key, Tid) order.
  void SortByKey() {
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) {
                return a.key != b.key ? a.key < b.key : a.offset < b.offset;
              });
  }

  /// Decodes rows from `*pos` on into fresh slots of `out` until it is full
  /// or the rows run out, advancing `*pos`.
  void Emit(const Schema& schema, size_t* pos, TupleBatch* out) const {
    while (*pos < entries_.size() && !out->full()) {
      const Entry& e = entries_[(*pos)++];
      schema.DeserializeInto(bytes_.data() + e.offset, e.size,
                             out->AppendSlot());
    }
  }

 private:
  struct Entry {
    int64_t key;
    size_t offset;
    uint32_t size;
  };

  std::vector<uint8_t> bytes_;
  std::vector<Entry> entries_;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_ACCESS_ENCODED_ROWS_H_
