#include "net/frame.h"

#include <bit>
#include <initializer_list>

namespace smoothscan {
namespace net {
namespace {

constexpr size_t kHeaderBytes = 5;  ///< u32 length + u8 type.

/// DONE flag bits.
constexpr uint8_t kCancelledFlag = 1;
constexpr uint8_t kWriteFlag = 2;
constexpr uint8_t kParallelFlag = 4;

bool KnownFrameType(uint8_t t) {
  switch (static_cast<FrameType>(t)) {
    case FrameType::kHello:
    case FrameType::kQuery:
    case FrameType::kCancel:
    case FrameType::kMetrics:
    case FrameType::kBatch:
    case FrameType::kDone:
    case FrameType::kError:
    case FrameType::kMetricsText:
      return true;
  }
  return false;
}

/// Little-endian store of the low `bytes` bytes of `v`.
void StoreLe(uint64_t v, size_t bytes, char* p) {
  for (size_t i = 0; i < bytes; ++i) p[i] = static_cast<char>(v >> (8 * i));
}

void PutLe(uint64_t v, size_t bytes, std::string* out) {
  char b[8];
  StoreLe(v, bytes, b);
  out->append(b, bytes);
}

uint64_t LoadLe(const char* p, size_t bytes) {
  uint64_t v = 0;
  for (size_t i = 0; i < bytes; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

/// Reads `bytes` little-endian bytes off the front of `p`; false (consuming
/// nothing) when fewer remain.
bool Take(std::string_view* p, size_t bytes, uint64_t* v) {
  if (p->size() < bytes) return false;
  *v = LoadLe(p->data(), bytes);
  p->remove_prefix(bytes);
  return true;
}

Status Truncated(const char* what) {
  return Status::InvalidArgument(std::string("truncated ") + what +
                                 " payload");
}

}  // namespace

void EncodeFrame(const Frame& frame, std::string* wire) {
  PutLe(frame.payload.size(), 4, wire);
  wire->push_back(static_cast<char>(frame.type));
  wire->append(frame.payload);
}

std::string* FrameBuilder::Start(FrameType type) {
  buf_.assign(kHeaderBytes, '\0');  // Keeps the capacity of earlier frames.
  buf_[4] = static_cast<char>(type);
  return &buf_;
}

std::string_view FrameBuilder::Finish() {
  StoreLe(buf_.size() - kHeaderBytes, 4, buf_.data());
  return buf_;
}

Status FrameDecoder::Feed(const char* data, size_t n) {
  if (poisoned_) return Status::InvalidArgument("frame stream poisoned");
  // The frames popped so far are released: drop their bytes.
  buf_.erase(0, pos_);
  pos_ = 0;
  buf_.append(data, n);
  // Validate every complete header immediately, even before its payload
  // arrives: a hostile length must be rejected without buffering toward it.
  size_t p = 0;
  while (buf_.size() - p >= kHeaderBytes) {
    const uint64_t len = LoadLe(buf_.data() + p, 4);
    if (len > kMaxFramePayload) {
      poisoned_ = true;
      return Status::InvalidArgument("oversized frame payload");
    }
    if (!KnownFrameType(static_cast<uint8_t>(buf_[p + 4]))) {
      poisoned_ = true;
      return Status::InvalidArgument("unknown frame type");
    }
    if (buf_.size() - p - kHeaderBytes < len) break;
    p += kHeaderBytes + len;
  }
  return Status::OK();
}

bool FrameDecoder::Pop(Frame* out) {
  if (poisoned_ || buf_.size() - pos_ < kHeaderBytes) return false;
  const uint64_t len = LoadLe(buf_.data() + pos_, 4);
  if (buf_.size() - pos_ - kHeaderBytes < len) return false;
  out->type = static_cast<FrameType>(buf_[pos_ + 4]);
  out->payload = std::string_view(buf_).substr(pos_ + kHeaderBytes, len);
  pos_ += kHeaderBytes + len;
  return true;
}

void AppendTagged(uint64_t tag, std::string_view text, std::string* out) {
  PutLe(tag, 8, out);
  out->append(text);
}

std::string EncodeTagged(uint64_t tag, std::string_view text) {
  std::string out;
  AppendTagged(tag, text, &out);
  return out;
}

Status ParseTagged(std::string_view payload, uint64_t* tag,
                   std::string_view* rest) {
  if (!Take(&payload, 8, tag)) return Truncated("tagged");
  *rest = payload;
  return Status::OK();
}

void AppendBatchPayload(uint64_t tag, const TupleBatch& batch,
                        std::string* out) {
  const size_t rows = batch.size();
  const size_t cols = rows == 0 ? 0 : batch.row(0).size();
  PutLe(tag, 8, out);
  PutLe(rows, 4, out);
  PutLe(cols, 4, out);
  size_t at = out->size();
  out->resize(at + rows * cols * 8);
  char* p = out->data();
  for (size_t i = 0; i < rows; ++i) {
    for (const Value& v : batch.row(i)) {
      StoreLe(static_cast<uint64_t>(v.AsInt64()), 8, p + at);
      at += 8;
    }
  }
}

Status ParseBatchPayload(std::string_view payload, uint64_t* tag,
                         std::vector<std::vector<int64_t>>* rows) {
  uint64_t n_rows = 0, n_cols = 0;
  if (!Take(&payload, 8, tag) || !Take(&payload, 4, &n_rows) ||
      !Take(&payload, 4, &n_cols)) {
    return Truncated("batch");
  }
  // Both counts are u32, so the cell count cannot overflow 64 bits; the
  // byte count is checked by division so it never has to be formed.
  const uint64_t cells = n_rows * n_cols;
  if (cells > payload.size() / 8) return Truncated("batch");
  if (cells * 8 != payload.size() || (n_rows != 0 && n_cols == 0)) {
    return Status::InvalidArgument("batch body does not match its shape");
  }
  const char* p = payload.data();
  rows->reserve(rows->size() + n_rows);
  for (uint64_t i = 0; i < n_rows; ++i) {
    std::vector<int64_t>& row = rows->emplace_back(n_cols);
    for (int64_t& v : row) {
      v = static_cast<int64_t>(LoadU64LE(reinterpret_cast<const uint8_t*>(p)));
      p += 8;
    }
  }
  return Status::OK();
}

void AppendDonePayload(uint64_t tag, const QueryResult& result,
                       std::string* out) {
  const QueryMetrics& m = result.metrics;
  PutLe(tag, 8, out);
  out->push_back(static_cast<char>(kDoneVersion));
  out->push_back(static_cast<char>(result.status.code()));
  out->push_back(static_cast<char>(m.kind));
  out->push_back(static_cast<char>(m.lane));
  out->push_back(static_cast<char>((m.cancelled ? kCancelledFlag : 0) |
                                   (m.write ? kWriteFlag : 0) |
                                   (m.parallel ? kParallelFlag : 0)));
  for (const uint64_t v : {m.tuples, m.io_requests, m.random_ios, m.seq_ios,
                           m.pages_read, m.mem_peak_bytes,
                           m.mem_quota_breaches}) {
    PutLe(v, 8, out);
  }
  for (const double d : {m.sim_time, m.io_time, m.cpu_time, m.queue_wait_ms,
                         m.exec_ms, m.latency_ms}) {
    PutLe(std::bit_cast<uint64_t>(d), 8, out);
  }
  PutLe(result.keys.size(), 4, out);
  for (const int64_t k : result.keys) PutLe(static_cast<uint64_t>(k), 8, out);
  const std::string& message = result.status.message();
  PutLe(message.size(), 4, out);
  out->append(message);
}

std::string EncodeDonePayload(uint64_t tag, const QueryResult& result) {
  std::string out;
  AppendDonePayload(tag, result, &out);
  return out;
}

Status ParseDonePayload(std::string_view payload, uint64_t* tag,
                        QueryResult* result) {
  uint64_t version = 0, status = 0, kind = 0, lane = 0, flags = 0;
  if (!Take(&payload, 8, tag) || !Take(&payload, 1, &version) ||
      !Take(&payload, 1, &status) || !Take(&payload, 1, &kind) ||
      !Take(&payload, 1, &lane) || !Take(&payload, 1, &flags)) {
    return Truncated("done");
  }
  if (version != kDoneVersion) {
    return Status::InvalidArgument("unknown done payload version");
  }
  // kCancelled is the last StatusCode.
  if (status > static_cast<uint64_t>(StatusCode::kCancelled) ||
      kind >= static_cast<uint64_t>(kNumPathKinds) ||
      lane > static_cast<uint64_t>(QueryLane::kSla) ||
      (flags & ~uint64_t{kCancelledFlag | kWriteFlag | kParallelFlag}) != 0) {
    return Status::InvalidArgument("done payload field out of range");
  }
  QueryResult out;
  QueryMetrics& m = out.metrics;
  m.kind = static_cast<PathKind>(kind);
  m.lane = static_cast<QueryLane>(lane);
  m.cancelled = (flags & kCancelledFlag) != 0;
  m.write = (flags & kWriteFlag) != 0;
  m.parallel = (flags & kParallelFlag) != 0;
  for (uint64_t* v : {&m.tuples, &m.io_requests, &m.random_ios, &m.seq_ios,
                      &m.pages_read, &m.mem_peak_bytes,
                      &m.mem_quota_breaches}) {
    if (!Take(&payload, 8, v)) return Truncated("done");
  }
  for (double* d : {&m.sim_time, &m.io_time, &m.cpu_time, &m.queue_wait_ms,
                    &m.exec_ms, &m.latency_ms}) {
    uint64_t bits = 0;
    if (!Take(&payload, 8, &bits)) return Truncated("done");
    *d = std::bit_cast<double>(bits);
  }
  uint64_t n_keys = 0;
  if (!Take(&payload, 4, &n_keys)) return Truncated("done");
  if (n_keys > payload.size() / 8) {
    return Status::InvalidArgument("done key count runs past the payload");
  }
  out.keys.resize(n_keys);
  for (int64_t& k : out.keys) {
    uint64_t v = 0;
    Take(&payload, 8, &v);
    k = static_cast<int64_t>(v);
  }
  uint64_t message_bytes = 0;
  if (!Take(&payload, 4, &message_bytes)) return Truncated("done");
  if (message_bytes != payload.size()) {
    return Status::InvalidArgument("done message length is not the rest");
  }
  if (status != 0) {
    out.status = Status(static_cast<StatusCode>(status), std::string(payload));
  }
  *result = std::move(out);
  return Status::OK();
}

}  // namespace net
}  // namespace smoothscan
