// Wire frames of the network front-end: a length-prefixed envelope around
// binary payloads, every integer little-endian.
//
//   [u32 payload length][u8 frame type][payload bytes]
//
// Client → server: HELLO ("LANE=batch|sla WINDOW=n" text), QUERY ([u64 tag]
// [query text]; grammar in plan/query_text.h), CANCEL ([tag]), METRICS
// ([tag]). Server → client: BATCH ([tag][u32 rows][u32 cols][rows × cols
// i64]), DONE (the full QueryResult, doubles as raw binary64 bits so the
// simulated-cost accounting arrives bit-identical), ERROR ([tag][message];
// tag 0 = connection-level), METRICS_TEXT ([tag]["name value" lines]).
//
// The payload cap bounds a connection's buffering; an oversized or
// unrecognized header is unrecoverable framing (the decoder cannot resync a
// byte stream) and closes that connection — the server itself stays up.
// Payload decoders reject truncation, trailing bytes and out-of-range
// fields with kInvalidArgument.

#ifndef SMOOTHSCAN_NET_FRAME_H_
#define SMOOTHSCAN_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/tuple_batch.h"
#include "engine/query_engine.h"

namespace smoothscan {
namespace net {

enum class FrameType : uint8_t {
  // Client → server.
  kHello = 1,
  kQuery = 2,
  kCancel = 3,
  kMetrics = 4,
  // Server → client.
  kBatch = 16,
  kDone = 17,
  kError = 18,
  kMetricsText = 19,
};

/// Largest accepted payload (1 MiB). Result batches are far smaller; query
/// text larger than this is hostile input.
inline constexpr uint32_t kMaxFramePayload = 1u << 20;

/// DONE payload layout version.
inline constexpr uint8_t kDoneVersion = 1;

/// A frame whose payload is borrowed: from the caller when encoding, from
/// the decoder's buffer when popped.
struct Frame {
  FrameType type = FrameType::kError;
  std::string_view payload;
};

/// Appends the wire encoding of `frame` to `wire`.
void EncodeFrame(const Frame& frame, std::string* wire);

/// One writer's reusable frame buffer: Start() begins a frame and returns
/// the buffer a payload encoder appends to; Finish() fills in the length and
/// returns the whole frame.
class FrameBuilder {
 public:
  std::string* Start(FrameType type);
  std::string_view Finish();

 private:
  std::string buf_;
};

/// Incremental decoder over a connection's byte stream. Feed() appends raw
/// bytes and validates each header as soon as it is complete; Pop() yields
/// finished frames. After a Feed() error the decoder is poisoned — the
/// stream cannot be resynchronized.
class FrameDecoder {
 public:
  /// kInvalidArgument on an oversized length or an unknown frame type.
  /// Invalidates the payloads of frames popped before.
  Status Feed(const char* data, size_t n);
  /// The next complete frame. Its payload views the decoder's buffer and
  /// stays valid until the next Feed().
  bool Pop(Frame* out);

 private:
  std::string buf_;
  size_t pos_ = 0;  ///< Consumption cursor (compacted by the next Feed).
  bool poisoned_ = false;
};

// --- payload codecs: Append* encoders append one payload to `out`.

void AppendTagged(uint64_t tag, std::string_view text, std::string* out);
std::string EncodeTagged(uint64_t tag, std::string_view text);
/// Splits [tag][rest]; rest may be empty.
Status ParseTagged(std::string_view payload, uint64_t* tag,
                   std::string_view* rest);

/// Every column must be INT64 or DATE (the server rejects other tables).
void AppendBatchPayload(uint64_t tag, const TupleBatch& batch,
                        std::string* out);
/// Appends the rows to `rows`; on error `rows` is left unchanged.
Status ParseBatchPayload(std::string_view payload, uint64_t* tag,
                         std::vector<std::vector<int64_t>>* rows);

/// [tag][u8 kDoneVersion][u8 status][u8 path kind][u8 lane][u8 flags:
/// 1 cancelled, 2 write, 4 parallel][u64 × 7: tuples, io_requests,
/// random_ios, seq_ios, pages_read, mem_peak_bytes, mem_quota_breaches]
/// [f64 × 6: sim_time, io_time, cpu_time, queue_wait_ms, exec_ms,
/// latency_ms][u32 n][n × i64 keys][u32 m][m message bytes].
void AppendDonePayload(uint64_t tag, const QueryResult& result,
                       std::string* out);
std::string EncodeDonePayload(uint64_t tag, const QueryResult& result);
Status ParseDonePayload(std::string_view payload, uint64_t* tag,
                        QueryResult* result);

}  // namespace net
}  // namespace smoothscan

#endif  // SMOOTHSCAN_NET_FRAME_H_
