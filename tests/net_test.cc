// Network front-end testing: the frame codec (round-trip, including the
// binary DONE payload that carries simulated-cost accounting bit-identically),
// decoder hostility (oversized/unknown/truncated frames close only the
// offending connection; truncated, overflowing, trailing and out-of-range
// payloads are rejected, and a seeded mutation loop finds no crash or
// over-read), session-window backpressure made visible in server stats,
// drainer threads reused from query to query, wire cancellation detaching a
// shared-scan consumer without
// perturbing its peers' bit-identical accounting, and — the API-redesign
// invariant — a wire-vs-direct differential: every query submitted as text
// through a server connection reports exactly the simulated cost of the same
// QuerySpec run directly, reads and writes, across admission caps 1/2/8.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "engine/session.h"
#include "index/bplus_tree.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/transport.h"
#include "net/wire_client.h"
#include "plan/query_text.h"
#include "sharing/scan_sharing.h"
#include "storage/heap_file.h"
#include "workload/workload_driver.h"
#include "write/table_writer.h"

namespace smoothscan {
namespace net {
namespace {

// ----------------------------------------------------------- frame codec

TEST(FrameCodecTest, RoundTripsThroughByteDribble) {
  // Several frames, fed to the decoder one byte at a time — the harshest
  // fragmentation a stream transport can produce.
  TupleBatch batch;
  batch.Append({Value::Int64(1), Value::Int64(2)});
  batch.Append({Value::Int64(3), Value::Int64(4)});
  std::string batch_payload;
  AppendBatchPayload(7, batch, &batch_payload);

  std::string wire;
  EncodeFrame({FrameType::kHello, "LANE=sla WINDOW=3"}, &wire);
  EncodeFrame({FrameType::kQuery, EncodeTagged(42, "SELECT * FROM t")}, &wire);
  EncodeFrame({FrameType::kBatch, batch_payload}, &wire);
  EncodeFrame({FrameType::kDone, ""}, &wire);  // Empty payload is legal.

  // Popped payloads live only until the next Feed: keep copies.
  struct OwnedFrame {
    FrameType type;
    std::string payload;
  };
  FrameDecoder decoder;
  std::vector<OwnedFrame> out;
  for (char c : wire) {
    ASSERT_TRUE(decoder.Feed(&c, 1).ok());
    Frame f;
    while (decoder.Pop(&f)) out.push_back({f.type, std::string(f.payload)});
  }
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].type, FrameType::kHello);
  EXPECT_EQ(out[0].payload, "LANE=sla WINDOW=3");
  EXPECT_EQ(out[1].type, FrameType::kQuery);
  uint64_t tag = 0;
  std::string_view rest;
  ASSERT_TRUE(ParseTagged(out[1].payload, &tag, &rest).ok());
  EXPECT_EQ(tag, 42u);
  EXPECT_EQ(rest, "SELECT * FROM t");
  std::vector<std::vector<int64_t>> rows;
  ASSERT_TRUE(ParseBatchPayload(out[2].payload, &tag, &rows).ok());
  EXPECT_EQ(tag, 7u);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(rows[1], (std::vector<int64_t>{3, 4}));
  EXPECT_EQ(out[3].payload, "");
}

TEST(FrameCodecTest, DonePayloadRoundTripsBitIdentically) {
  // Doubles with no short decimal form: %.17g must reproduce them exactly.
  QueryResult result;
  result.status = Status::Cancelled("stopped mid-lap");
  result.metrics.sim_time = 1.0 / 3.0 * 12345.0;
  result.metrics.io_time = std::sqrt(2.0) * 100.0;
  result.metrics.cpu_time = 0.1 + 0.2;  // The classic non-representable sum.
  result.metrics.queue_wait_ms = 1e-9;
  result.metrics.exec_ms = 17.125;
  result.metrics.latency_ms = 1.0 / 7.0;
  result.metrics.io_requests = 123;
  result.metrics.random_ios = 45;
  result.metrics.seq_ios = 78;
  result.metrics.pages_read = 901;
  result.metrics.tuples = 23456;
  result.metrics.mem_peak_bytes = 1u << 20;
  result.metrics.mem_quota_breaches = 3;
  result.metrics.kind = PathKind::kSmoothScan;
  result.metrics.lane = QueryLane::kSla;
  result.metrics.parallel = true;
  result.metrics.cancelled = true;
  result.keys = {-5, 0, 7, 7, 123456789};

  const std::string payload = EncodeDonePayload(99, result);
  uint64_t tag = 0;
  QueryResult back;
  ASSERT_TRUE(ParseDonePayload(payload, &tag, &back).ok());
  EXPECT_EQ(tag, 99u);
  EXPECT_EQ(back.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(back.status.message(), "stopped mid-lap");
  EXPECT_EQ(back.metrics.sim_time, result.metrics.sim_time);  // Exact.
  EXPECT_EQ(back.metrics.io_time, result.metrics.io_time);
  EXPECT_EQ(back.metrics.cpu_time, result.metrics.cpu_time);
  EXPECT_EQ(back.metrics.queue_wait_ms, result.metrics.queue_wait_ms);
  EXPECT_EQ(back.metrics.exec_ms, result.metrics.exec_ms);
  EXPECT_EQ(back.metrics.latency_ms, result.metrics.latency_ms);
  EXPECT_EQ(back.metrics.io_requests, result.metrics.io_requests);
  EXPECT_EQ(back.metrics.random_ios, result.metrics.random_ios);
  EXPECT_EQ(back.metrics.seq_ios, result.metrics.seq_ios);
  EXPECT_EQ(back.metrics.pages_read, result.metrics.pages_read);
  EXPECT_EQ(back.metrics.tuples, result.metrics.tuples);
  EXPECT_EQ(back.metrics.mem_peak_bytes, result.metrics.mem_peak_bytes);
  EXPECT_EQ(back.metrics.mem_quota_breaches,
            result.metrics.mem_quota_breaches);
  EXPECT_EQ(back.metrics.kind, PathKind::kSmoothScan);
  EXPECT_EQ(back.metrics.lane, QueryLane::kSla);
  EXPECT_TRUE(back.metrics.parallel);
  EXPECT_TRUE(back.metrics.cancelled);
  EXPECT_EQ(back.keys, result.keys);
}

TEST(FrameCodecTest, DecoderPoisonsOnHostileHeaders) {
  {
    // Oversized declared length: rejected as soon as the header completes,
    // before any payload is buffered.
    FrameDecoder decoder;
    std::string header;
    const uint32_t huge = kMaxFramePayload + 1;
    header.append(reinterpret_cast<const char*>(&huge), 4);
    header.push_back(static_cast<char>(FrameType::kQuery));
    EXPECT_FALSE(decoder.Feed(header.data(), header.size()).ok());
    Frame f;
    EXPECT_FALSE(decoder.Pop(&f));  // Poisoned: nothing ever pops again.
  }
  {
    // Unknown frame type: a stream this far out of sync cannot be resynced.
    FrameDecoder decoder;
    std::string wire;
    EncodeFrame({FrameType::kQuery, "x"}, &wire);
    wire[4] = 99;  // Corrupt the type byte.
    EXPECT_FALSE(decoder.Feed(wire.data(), wire.size()).ok());
  }
  {
    // A truncated frame is not an error — just an incomplete stream.
    FrameDecoder decoder;
    std::string wire;
    EncodeFrame({FrameType::kQuery, EncodeTagged(1, "SELECT")}, &wire);
    ASSERT_TRUE(decoder.Feed(wire.data(), wire.size() - 3).ok());
    Frame f;
    EXPECT_FALSE(decoder.Pop(&f));
    ASSERT_TRUE(decoder.Feed(wire.data() + wire.size() - 3, 3).ok());
    EXPECT_TRUE(decoder.Pop(&f));
  }
}

// --------------------------------------------------- hostile payloads

/// Parses a copy of `bytes` in a buffer of exactly that size, so any read
/// past the payload is a heap overflow the sanitizer builds report.
template <typename Parse>
Status ParseExact(const std::string& bytes, Parse parse) {
  const std::vector<char> exact(bytes.begin(), bytes.end());
  return parse(std::string_view(exact.data(), exact.size()));
}

Status ParseBatch(const std::string& bytes,
                  std::vector<std::vector<int64_t>>* rows) {
  return ParseExact(bytes, [rows](std::string_view p) {
    uint64_t tag = 0;
    return ParseBatchPayload(p, &tag, rows);
  });
}

Status ParseDone(const std::string& bytes) {
  return ParseExact(bytes, [](std::string_view p) {
    uint64_t tag = 0;
    QueryResult result;
    return ParseDonePayload(p, &tag, &result);
  });
}

std::string BatchPayload(uint64_t tag, int rows, int cols, int64_t seed) {
  TupleBatch batch;
  for (int r = 0; r < rows; ++r) {
    Tuple t;
    for (int c = 0; c < cols; ++c) {
      t.push_back(Value::Int64(seed * 1000003 + r * cols + c - 77));
    }
    batch.Append(std::move(t));
  }
  std::string out;
  AppendBatchPayload(tag, batch, &out);
  return out;
}

/// [tag][u32 rows][u32 cols] with no cells.
std::string BatchHeader(uint32_t rows, uint32_t cols) {
  std::string out = EncodeTagged(5, {});
  for (const uint32_t v : {rows, cols}) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
  }
  return out;
}

QueryResult SampleDoneResult(size_t keys, const std::string& message) {
  QueryResult r;
  if (!message.empty()) r.status = Status::Internal(message);
  r.metrics.sim_time = 1.0 / 3.0;
  r.metrics.tuples = 42;
  r.metrics.kind = PathKind::kSwitchScan;
  r.metrics.write = true;
  for (size_t i = 0; i < keys; ++i) r.keys.push_back(static_cast<int64_t>(i));
  return r;
}

// Byte offsets of the fixed DONE fields (see net/frame.h).
constexpr size_t kDoneVersionAt = 8;
constexpr size_t kDoneStatusAt = 9;
constexpr size_t kDoneKindAt = 10;
constexpr size_t kDoneLaneAt = 11;
constexpr size_t kDoneFlagsAt = 12;
constexpr size_t kDoneKeyCountAt = 13 + 7 * 8 + 6 * 8;

TEST(FrameCodecTest, BatchDecoderRejectsHostilePayloads) {
  const std::string valid = BatchPayload(9, 3, 4, 1);
  std::vector<std::vector<int64_t>> rows;
  ASSERT_TRUE(ParseBatch(valid, &rows).ok());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[2][3], 1000003 + 11 - 77);

  auto expect_rejected = [](const std::string& bytes, const char* label) {
    std::vector<std::vector<int64_t>> out;
    const Status s = ParseBatch(bytes, &out);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << label;
    EXPECT_TRUE(out.empty()) << label;  // Nothing appended on error.
  };
  for (size_t n = 0; n < valid.size(); ++n) {
    expect_rejected(valid.substr(0, n), "truncated");
  }
  expect_rejected(valid + '\0', "trailing byte");
  // rows × cols × 8 wraps to 0 in 32 bits: a header-only payload must not
  // pass as an empty body.
  expect_rejected(BatchHeader(1u << 28, 1u << 1), "32-bit overflow");
  expect_rejected(BatchHeader(0xffffffffu, 0xffffffffu), "max counts");
  expect_rejected(BatchHeader(1u << 20, 0), "rows without columns");
  EXPECT_TRUE(ParseBatch(BatchHeader(0, 0), &rows).ok());  // Empty batch.
}

TEST(FrameCodecTest, DoneDecoderRejectsHostilePayloads) {
  const std::string valid =
      EncodeDonePayload(3, SampleDoneResult(5, "disk on fire"));
  ASSERT_TRUE(ParseDone(valid).ok());

  auto expect_rejected = [](const std::string& bytes, const char* label) {
    EXPECT_EQ(ParseDone(bytes).code(), StatusCode::kInvalidArgument) << label;
  };
  auto with_byte = [&valid](size_t at, uint8_t v) {
    std::string b = valid;
    b[at] = static_cast<char>(v);
    return b;
  };
  for (size_t n = 0; n < valid.size(); ++n) {
    expect_rejected(valid.substr(0, n), "truncated");
  }
  expect_rejected(valid + 'x', "trailing byte");
  expect_rejected(with_byte(kDoneVersionAt, kDoneVersion + 1), "version");
  expect_rejected(with_byte(kDoneVersionAt, 0), "version 0");
  expect_rejected(
      with_byte(kDoneStatusAt, static_cast<uint8_t>(StatusCode::kCancelled) + 1),
      "status");
  expect_rejected(with_byte(kDoneKindAt, kNumPathKinds), "kind");
  expect_rejected(with_byte(kDoneLaneAt, 2), "lane");
  expect_rejected(with_byte(kDoneFlagsAt, 8), "flags");
  // Key counts that run past the payload: one too many, and the maximum.
  expect_rejected(with_byte(kDoneKeyCountAt, 6), "key count + 1");
  std::string huge = valid;
  std::memset(huge.data() + kDoneKeyCountAt, 0xff, 4);
  expect_rejected(huge, "key count max");
  // The message length is the last field: it must end the payload exactly.
  std::string short_message = valid;
  short_message[kDoneKeyCountAt + 4 + 5 * 8] = 3;
  expect_rejected(short_message, "message shorter than the payload");
}

TEST(FrameCodecTest, DecodersSurviveSeededMutations) {
  // Valid payloads and frame streams, randomly mutated: every decode either
  // succeeds with self-consistent output or fails with kInvalidArgument —
  // never a crash, an over-read (see ParseExact) or a runaway allocation.
  std::mt19937_64 rng(20240611);
  auto pick = [&rng](uint64_t n) {
    return std::uniform_int_distribution<uint64_t>(0, n - 1)(rng);
  };
  auto mutate = [&](std::string b) {
    const uint64_t edits = 1 + pick(4);
    for (uint64_t e = 0; e < edits; ++e) {
      switch (pick(5)) {
        case 0:  // Flip a byte.
          if (!b.empty()) b[pick(b.size())] ^= static_cast<char>(1 + pick(255));
          break;
        case 1:  // Truncate.
          b.resize(pick(b.size() + 1));
          break;
        case 2:  // Append garbage.
          for (uint64_t i = pick(9); i > 0; --i) {
            b.push_back(static_cast<char>(pick(256)));
          }
          break;
        case 3: {  // Overwrite a u32 with an extreme value.
          if (b.size() < 4) break;
          const uint32_t extremes[] = {0, 1, 0x7fffffffu, 0x80000000u,
                                       0xffffffffu, 1u << 28};
          const uint32_t v = extremes[pick(6)];
          std::memcpy(b.data() + pick(b.size() - 3), &v, 4);
          break;
        }
        default:  // Insert a byte.
          b.insert(b.begin() + static_cast<std::ptrdiff_t>(pick(b.size() + 1)),
                   static_cast<char>(pick(256)));
          break;
      }
    }
    return b;
  };

  constexpr int kIterations = 3000;
  int accepted = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string batch = mutate(BatchPayload(
        pick(1000), static_cast<int>(pick(5)), static_cast<int>(1 + pick(4)),
        static_cast<int64_t>(i)));
    std::vector<std::vector<int64_t>> rows;
    const Status bs = ParseBatch(batch, &rows);
    if (bs.ok()) {
      ++accepted;
      for (const auto& row : rows) EXPECT_EQ(row.size() * 8 * rows.size(),
                                             batch.size() - 16);
    } else {
      EXPECT_EQ(bs.code(), StatusCode::kInvalidArgument);
      EXPECT_TRUE(rows.empty());
    }

    const std::string done = mutate(EncodeDonePayload(
        pick(1000), SampleDoneResult(pick(6), pick(2) ? "" : "msg")));
    const Status ds = ParseDone(done);
    if (ds.ok()) {
      ++accepted;
    } else {
      EXPECT_EQ(ds.code(), StatusCode::kInvalidArgument);
    }

    // The frame layer: a mutated stream fed in random chunks either yields
    // frames within the payload cap or poisons the decoder.
    std::string wire;
    EncodeFrame({FrameType::kBatch, batch}, &wire);
    EncodeFrame({FrameType::kDone, done}, &wire);
    wire = mutate(std::move(wire));
    FrameDecoder decoder;
    for (size_t at = 0; at < wire.size();) {
      const size_t n = std::min<size_t>(wire.size() - at, 1 + pick(16));
      const std::vector<char> chunk(wire.begin() + at, wire.begin() + at + n);
      at += n;
      if (!decoder.Feed(chunk.data(), chunk.size()).ok()) break;
      Frame f;
      while (decoder.Pop(&f)) EXPECT_LE(f.payload.size(), kMaxFramePayload);
    }
  }
  // The mutations are not all fatal: some decodes still succeed.
  EXPECT_GT(accepted, 0);
}

TEST(FrameCodecTest, CorruptDoneFailsTheQueryInsteadOfHanging) {
  // The test plays the server: one good BATCH, then a DONE of a layout
  // version the client does not speak. Wait() must return the failure.
  auto [client_end, server_end] = MakePipePair();
  WireClient client(std::move(client_end));
  const uint64_t tag = client.Submit("SELECT * FROM t");
  std::string done = EncodeDonePayload(tag, QueryResult{});
  done[kDoneVersionAt] = static_cast<char>(kDoneVersion + 1);
  std::string wire;
  EncodeFrame({FrameType::kBatch, BatchPayload(tag, 2, 3, 0)}, &wire);
  EncodeFrame({FrameType::kDone, done}, &wire);
  ASSERT_TRUE(server_end->WriteAll(wire.data(), wire.size()));
  const WireResult r = client.Wait(tag);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.rows.size(), 2u);
}

// ----------------------------------------------------------- server fixture

/// One engine + micro-bench table + catalog + server, the seed fixed so two
/// fixtures are bit-identical worlds (the differential tests build several).
struct ServedDb {
  explicit ServedDb(uint32_t max_admitted, ServerOptions options = {},
                    bool with_writes = false) {
    EngineOptions eo;
    eo.buffer_pool_pages = 512;
    engine = std::make_unique<Engine>(eo);
    MicroBenchSpec spec;
    spec.num_tuples = 20000;
    spec.value_max = 4000;
    spec.seed = 17;
    db = std::make_unique<MicroBenchDb>(engine.get(), spec);

    QueryEngineOptions qeo;
    qeo.max_admitted = max_admitted;
    if (with_writes) {
      versions = std::make_unique<TableVersionRegistry>(engine.get());
      writer = std::make_unique<TableWriter>(
          db->mutable_heap(), std::vector<BPlusTree*>{db->mutable_index()},
          versions.get());
      qeo.versions = versions.get();
    }
    qe = std::make_unique<QueryEngine>(engine.get(), qeo);

    TableBinding binding;
    binding.index = &db->index();
    if (with_writes) binding.writer = writer.get();
    catalog.Register("t", binding);
    server = std::make_unique<Server>(qe.get(), &catalog, options);
  }

  std::unique_ptr<Engine> engine;
  std::unique_ptr<MicroBenchDb> db;
  std::unique_ptr<TableVersionRegistry> versions;
  std::unique_ptr<TableWriter> writer;
  std::unique_ptr<QueryEngine> qe;
  QueryCatalog catalog;
  std::unique_ptr<Server> server;
};

std::string SelectText(const ScanPredicate& pred, const char* policy,
                       uint64_t estimate) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "SELECT * FROM t WHERE C%d >= %lld AND C%d < %lld "
                "WITH (POLICY=%s, ESTIMATE=%llu, KEYS=1)",
                pred.column, static_cast<long long>(pred.lo), pred.column,
                static_cast<long long>(pred.hi), policy,
                static_cast<unsigned long long>(estimate));
  return buf;
}

void ExpectWireMatchesDirect(const QueryMetrics& direct, const WireResult& w,
                             const std::string& label) {
  ASSERT_TRUE(w.complete) << label;
  ASSERT_TRUE(w.status.ok()) << label << ": " << w.status.ToString();
  EXPECT_EQ(direct.sim_time, w.metrics.sim_time) << label;  // Exact.
  EXPECT_EQ(direct.io_time, w.metrics.io_time) << label;
  EXPECT_EQ(direct.cpu_time, w.metrics.cpu_time) << label;
  EXPECT_EQ(direct.io_requests, w.metrics.io_requests) << label;
  EXPECT_EQ(direct.random_ios, w.metrics.random_ios) << label;
  EXPECT_EQ(direct.seq_ios, w.metrics.seq_ios) << label;
  EXPECT_EQ(direct.pages_read, w.metrics.pages_read) << label;
  EXPECT_EQ(direct.tuples, w.metrics.tuples) << label;
  EXPECT_EQ(direct.kind, w.metrics.kind) << label;
}

// ----------------------------------------------------------- server behavior

TEST(NetServerTest, HostileConnectionClosesAloneServerKeepsServing) {
  ServedDb world(/*max_admitted=*/2);

  // A well-behaved client on connection 1...
  WireClient good(world.server->ConnectPipe());
  const ScanPredicate pred = world.db->PredicateForSelectivity(0.01);
  WireResult r = good.Wait(good.Submit(SelectText(pred, "smooth", 0)));
  ASSERT_TRUE(r.status.ok());
  const uint64_t tuples_before = r.metrics.tuples;
  EXPECT_GT(tuples_before, 0u);

  // ...and a hostile byte stream on connection 2: an oversized header.
  std::unique_ptr<Transport> evil = world.server->ConnectPipe();
  std::string garbage;
  const uint32_t huge = kMaxFramePayload + 7;
  garbage.append(reinterpret_cast<const char*>(&huge), 4);
  garbage.push_back(static_cast<char>(FrameType::kQuery));
  ASSERT_TRUE(evil->WriteAll(garbage.data(), garbage.size()));
  // The server closes that connection: the next read sees EOF.
  char byte;
  int n;
  while ((n = evil->Read(&byte, 1)) > 0) {
  }
  EXPECT_LE(n, 0);

  // A half-written frame on connection 3, then the client walks away:
  // truncation is EOF, not a query.
  {
    std::unique_ptr<Transport> quitter = world.server->ConnectPipe();
    std::string partial;
    EncodeFrame({FrameType::kQuery, EncodeTagged(1, "SELECT * FROM t")},
                &partial);
    ASSERT_TRUE(quitter->WriteAll(partial.data(), partial.size() - 4));
  }  // Dropped mid-frame.

  // The good connection is entirely unaffected.
  r = good.Wait(good.Submit(SelectText(pred, "smooth", 0)));
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.metrics.tuples, tuples_before);
  EXPECT_GE(world.server->stats().frames_malformed, 1u);
  EXPECT_EQ(world.server->stats().queries_ok, 2u);
}

TEST(NetServerTest, PayloadErrorsKeepTheConnection) {
  ServedDb world(/*max_admitted=*/2);
  WireClient client(world.server->ConnectPipe());

  // Three payload-level rejections — parse error, bind error (unknown
  // table), chooser without statistics — each an ERROR frame, never a close.
  WireResult r = client.Wait(client.Submit("SELEKT * FROM t"));
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  r = client.Wait(
      client.Submit("SELECT * FROM nope WHERE C1 >= 0 AND C1 < 10"));
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  r = client.Wait(client.Submit(
      "SELECT * FROM t WHERE C1 >= 0 AND C1 < 10 WITH (POLICY=auto)"));
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);

  const ScanPredicate pred = world.db->PredicateForSelectivity(0.01);
  r = client.Wait(client.Submit(SelectText(pred, "index", 0)));
  EXPECT_TRUE(r.status.ok());
  EXPECT_GT(r.metrics.tuples, 0u);
  EXPECT_EQ(world.server->stats().queries_error, 3u);
  EXPECT_EQ(world.server->stats().frames_malformed, 0u);
}

TEST(NetServerTest, SessionWindowBackpressureIsVisible) {
  // Window 1 on a cap-1 engine: with several queries submitted back to back,
  // every submit after the first must stall in the connection's session
  // window until the previous query completes.
  ServedDb world(/*max_admitted=*/1);
  WireClient client(world.server->ConnectPipe());
  client.Hello("batch", /*window=*/1);

  const ScanPredicate pred = world.db->PredicateForSelectivity(0.3);
  std::vector<uint64_t> tags;
  for (int i = 0; i < 6; ++i) {
    tags.push_back(client.Submit(SelectText(pred, "full", 0)));
  }
  for (const uint64_t tag : tags) {
    ASSERT_TRUE(client.Wait(tag).status.ok());
  }
  const ServerStats stats = world.server->stats();
  EXPECT_EQ(stats.queries_ok, 6u);
  EXPECT_GT(stats.window_stalls, 0u);
}

TEST(NetServerTest, OrderedFullAndSwitchPlansReturnKeyOrder) {
  // ORDER BY KEY over the order-destroying paths: the plan's posterior sort
  // must deliver the oracle's rows in key order, over the wire.
  ServedDb world(/*max_admitted=*/2);
  WireClient client(world.server->ConnectPipe());
  const ScanPredicate pred = world.db->PredicateForSelectivity(0.2);
  std::multiset<int64_t> oracle;
  world.db->heap().ForEachDirect([&](Tid, const Tuple& t) {
    if (pred.Matches(t)) oracle.insert(t[pred.column].AsInt64());
  });
  for (const char* policy : {"full", "switch"}) {
    char text[192];
    // ESTIMATE=10: the switch scan abandons its index phase early.
    std::snprintf(text, sizeof text,
                  "SELECT * FROM t WHERE C%d >= %lld AND C%d < %lld "
                  "ORDER BY KEY WITH (POLICY=%s, ESTIMATE=10)",
                  pred.column, static_cast<long long>(pred.lo), pred.column,
                  static_cast<long long>(pred.hi), policy);
    const WireResult r = client.Wait(client.Submit(text));
    ASSERT_TRUE(r.status.ok()) << policy << ": " << r.status.ToString();
    std::vector<int64_t> keys;
    for (const std::vector<int64_t>& row : r.rows) {
      keys.push_back(row[pred.column]);
    }
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end())) << policy;
    EXPECT_EQ(std::multiset<int64_t>(keys.begin(), keys.end()), oracle)
        << policy;
    EXPECT_EQ(r.metrics.tuples, oracle.size()) << policy;
  }
}

TEST(NetServerTest, DrainersAreReusedAcrossQueries) {
  // Hundreds of queries one after another on one connection: a drainer
  // parks after each query and takes the next, so the threads started
  // follow the queries in flight (at most the session window, plus one
  // finishing its DONE), not the queries served.
  ServedDb world(/*max_admitted=*/2);
  const uint64_t bound = ServerOptions().session.max_outstanding + 1;
  {
    WireClient client(world.server->ConnectPipe());
    const ScanPredicate pred = world.db->PredicateForSelectivity(0.001);
    constexpr int kQueries = 300;
    for (int i = 0; i < kQueries; ++i) {
      ASSERT_TRUE(
          client.Wait(client.Submit(SelectText(pred, "index", 0))).status.ok());
    }
    ServerStats stats = world.server->stats();
    EXPECT_EQ(stats.queries_ok, static_cast<uint64_t>(kQueries));
    EXPECT_GE(stats.drainers_started, 1u);
    EXPECT_LE(stats.drainers_started, bound);

    // A CANCEL landing mid-stream, then a query on the same (reused)
    // drainers: its rows are complete and match the oracle.
    const ScanPredicate wide = world.db->PredicateForSelectivity(0.9);
    const uint64_t victim = client.Submit(SelectText(wide, "full", 0));
    client.Cancel(victim);
    EXPECT_TRUE(client.Wait(victim).complete);
    const ScanPredicate next = world.db->PredicateForSelectivity(0.2);
    std::multiset<int64_t> oracle;
    world.db->heap().ForEachDirect([&](Tid, const Tuple& t) {
      if (next.Matches(t)) oracle.insert(t[next.column].AsInt64());
    });
    const WireResult r = client.Wait(client.Submit(SelectText(next, "smooth", 0)));
    ASSERT_TRUE(r.complete);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    std::multiset<int64_t> got;
    for (const std::vector<int64_t>& row : r.rows) got.insert(row[next.column]);
    EXPECT_EQ(got, oracle);
    EXPECT_EQ(r.metrics.tuples, oracle.size());
    stats = world.server->stats();
    EXPECT_LE(stats.drainers_started, bound);
    EXPECT_GE(stats.drainers_live, 1u);
    client.Close();
  }
  // The reader joins the connection's drainers as it tears down.
  for (int i = 0; i < 5000 && world.server->stats().drainers_live != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(world.server->stats().drainers_live, 0u);
}

TEST(NetServerTest, NonIntegerTableIsRejectedAtBind) {
  // BATCH frames carry INT64 cells: a SELECT over a table with a DOUBLE
  // column is answered with a tagged ERROR, and the connection (and the
  // server) keep serving.
  ServedDb world(/*max_admitted=*/2);
  HeapFile heap(world.engine.get(), "priced",
                Schema({{"k", ValueType::kInt64}, {"price", ValueType::kDouble}}));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(heap.Append({Value::Int64(i), Value::Double(i * 0.5)}).ok());
  }
  BPlusTree index(world.engine.get(), "priced_k", &heap, /*key_column=*/0);
  index.BulkBuild();
  TableBinding binding;
  binding.index = &index;
  world.catalog.Register("priced", binding);

  WireClient client(world.server->ConnectPipe());
  WireResult r = client.Wait(client.Submit(
      "SELECT * FROM priced WHERE C0 >= 0 AND C0 < 50 WITH (POLICY=full)"));
  ASSERT_TRUE(r.complete);
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(r.rows.empty());

  const ScanPredicate pred = world.db->PredicateForSelectivity(0.01);
  r = client.Wait(client.Submit(SelectText(pred, "index", 0)));
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_GT(r.rows.size(), 0u);
  EXPECT_EQ(r.rows.size(), r.metrics.tuples);
  const ServerStats stats = world.server->stats();
  EXPECT_EQ(stats.queries_error, 1u);
  EXPECT_EQ(stats.queries_ok, 1u);
  EXPECT_EQ(stats.frames_malformed, 0u);
  client.Close();
  world.server->Stop();  // Before the table it serves goes away.
}

TEST(NetServerTest, TcpTransportServesTheSameProtocol) {
  ServedDb world(/*max_admitted=*/2);
  ASSERT_TRUE(world.server->ListenTcp(0));  // Ephemeral port.
  std::unique_ptr<Transport> t = TcpListener::Connect(world.server->tcp_port());
  ASSERT_NE(t, nullptr);
  WireClient client(std::move(t));
  const ScanPredicate pred = world.db->PredicateForSelectivity(0.05);
  const WireResult r = client.Wait(client.Submit(SelectText(pred, "smooth", 0)));
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.metrics.tuples, r.rows.size());
  EXPECT_GT(r.rows.size(), 0u);
}

// ----------------------------------------------------------- cancellation

TEST(NetCancelTest, WireCancelDetachesConsumerPeersStayIntact) {
  // Run A: seven shared-scan consumers, no cancellation — the reference.
  // Run B: the same seven plus an eighth, cancelled over the wire mid-scan.
  // The seven peers must produce the same result multisets in both worlds:
  // a wire CANCEL Detaches its consumer and corrupts nothing. (Per-peer
  // *charges* are not compared — shared-scan accounting hinges on which
  // consumer happens to pump the group's chunk fetches, a wall-clock race;
  // the bench JSON marks shared rows timing_dependent for the same reason.)
  auto run = [](bool with_victim) {
    EngineOptions eo;
    eo.buffer_pool_pages = 512;
    Engine engine(eo);
    MicroBenchSpec spec;
    spec.num_tuples = 20000;
    spec.value_max = 4000;
    spec.seed = 17;
    MicroBenchDb db(&engine, spec);
    ScanSharingCoordinator sharing(&engine);
    QueryEngineOptions qeo;
    qeo.max_admitted = 8;  // Every consumer admitted at once.
    qeo.sharing = &sharing;
    QueryEngine qe(&engine, qeo);
    TableBinding binding;
    binding.index = &db.index();
    QueryCatalog catalog;
    catalog.Register("t", binding);
    ServerOptions so;
    so.session.max_outstanding = 8;
    Server server(&qe, &catalog, so);
    WireClient client(server.ConnectPipe());

    const ScanPredicate pred = db.PredicateForSelectivity(0.4);
    const std::string text = SelectText(pred, "shared", 0);
    std::vector<uint64_t> peers;
    for (int i = 0; i < 7; ++i) peers.push_back(client.Submit(text));
    bool victim_cancelled = false;
    if (with_victim) {
      const uint64_t victim = client.Submit(text);
      client.Cancel(victim);
      const WireResult vr = client.Wait(victim);
      victim_cancelled = vr.metrics.cancelled;
    }
    std::vector<WireResult> results;
    for (const uint64_t tag : peers) results.push_back(client.Wait(tag));
    return std::make_pair(std::move(results), victim_cancelled);
  };

  const auto reference = run(/*with_victim=*/false);
  const auto cancelled = run(/*with_victim=*/true);
  // The cancel raced a multi-millisecond scan from microseconds away — it
  // lands before completion; either way the peers below must be untouched.
  EXPECT_TRUE(cancelled.second);
  ASSERT_EQ(reference.first.size(), 7u);
  ASSERT_EQ(cancelled.first.size(), 7u);
  for (size_t i = 0; i < 7; ++i) {
    const WireResult& a = reference.first[i];
    const WireResult& b = cancelled.first[i];
    ASSERT_TRUE(a.status.ok());
    ASSERT_TRUE(b.status.ok());
    const std::multiset<int64_t> ka(a.keys.begin(), a.keys.end());
    const std::multiset<int64_t> kb(b.keys.begin(), b.keys.end());
    EXPECT_EQ(ka, kb) << "peer " << i;
    EXPECT_EQ(a.metrics.tuples, b.metrics.tuples) << "peer " << i;
    EXPECT_FALSE(a.metrics.cancelled) << "peer " << i;
    EXPECT_FALSE(b.metrics.cancelled) << "peer " << i;
  }
}

// ----------------------------------------------------------- differential

TEST(NetDifferentialTest, WireReadsBitIdenticalToDirectSpecs) {
  // The direct baseline: every (path, selectivity) spec run through a
  // plain QueryEngine, no sessions, no wire.
  ServedDb direct(/*max_admitted=*/1);
  struct Case {
    PathKind kind;
    const char* policy;
    double selectivity;
  };
  const Case kCases[] = {
      {PathKind::kFullScan, "full", 0.001},  {PathKind::kFullScan, "full", 0.5},
      {PathKind::kIndexScan, "index", 0.001},
      {PathKind::kIndexScan, "index", 0.05},
      {PathKind::kSwitchScan, "switch", 0.05},
      {PathKind::kSwitchScan, "switch", 0.5},
      {PathKind::kSmoothScan, "smooth", 0.001},
      {PathKind::kSmoothScan, "smooth", 0.05},
      {PathKind::kSmoothScan, "smooth", 0.5},
  };
  std::vector<QueryMetrics> baseline;
  std::vector<std::multiset<int64_t>> baseline_keys;
  for (const Case& c : kCases) {
    QuerySpec spec;
    spec.index = &direct.db->index();
    spec.predicate = direct.db->PredicateForSelectivity(c.selectivity);
    spec.kind = c.kind;
    spec.estimate = 100;  // Underestimate: Switch Scan genuinely switches.
    spec.collect_keys = true;
    const QueryResult r = direct.qe->WaitSpec(direct.qe->SubmitSpec(spec));
    ASSERT_TRUE(r.status.ok());
    baseline.push_back(r.metrics);
    baseline_keys.emplace_back(r.keys.begin(), r.keys.end());
  }

  // The same queries as wire text, through a server over a bit-identical
  // world, at three admission caps — concurrency and transport must change
  // nothing about any query's simulated cost.
  for (const uint32_t cap : {1u, 2u, 8u}) {
    ServedDb world(cap);
    WireClient client(world.server->ConnectPipe());
    client.Hello("batch", /*window=*/16);
    std::vector<uint64_t> tags;
    for (const Case& c : kCases) {
      const ScanPredicate pred =
          world.db->PredicateForSelectivity(c.selectivity);
      tags.push_back(client.Submit(SelectText(pred, c.policy, 100)));
    }
    for (size_t i = 0; i < tags.size(); ++i) {
      const WireResult w = client.Wait(tags[i]);
      const std::string label = std::string(kCases[i].policy) + " sel " +
                                std::to_string(kCases[i].selectivity) +
                                " cap " + std::to_string(cap);
      ExpectWireMatchesDirect(baseline[i], w, label);
      const std::multiset<int64_t> keys(w.keys.begin(), w.keys.end());
      EXPECT_EQ(keys, baseline_keys[i]) << label;
      // The streamed rows are the result relation itself.
      EXPECT_EQ(w.rows.size(), baseline[i].tuples) << label;
    }
  }
}

TEST(NetDifferentialTest, WireWritesBitIdenticalToDirectSpecs) {
  // One batch of chained DML (inserts, an update, a delete) applied twice:
  // directly as WriteOps, and as wire text through the server — against two
  // bit-identical worlds. Write metrics and the post-write table state must
  // agree exactly.
  const int kInserts = 40;
  auto make_ops = [&](const Schema& schema) {
    std::vector<WriteOp> ops;
    for (int i = 0; i < kInserts; ++i) {
      Tuple t(schema.num_columns());
      t[0] = Value::Int64(9000000 + i);
      t[1] = Value::Int64(i % 50);
      for (size_t c = 2; c < schema.num_columns(); ++c) {
        t[c] = Value::Int64(static_cast<int64_t>(c));
      }
      ops.push_back(WriteOp::MakeInsert(std::move(t)));
    }
    {
      Tuple t(schema.num_columns());
      t[0] = Value::Int64(9100000);
      t[1] = Value::Int64(1);
      for (size_t c = 2; c < schema.num_columns(); ++c) {
        t[c] = Value::Int64(static_cast<int64_t>(c));
      }
      ops.push_back(WriteOp::MakeUpdate(Tid{0, 0}, std::move(t)));
    }
    ops.push_back(WriteOp::MakeDelete(Tid{1, 2}));
    return ops;
  };
  auto ops_text = [&](const std::vector<WriteOp>& ops) {
    std::string text;
    for (const WriteOp& op : ops) {
      if (!text.empty()) text += "; ";
      switch (op.kind) {
        case WriteOp::Kind::kInsert: {
          text += "INSERT INTO t VALUES (";
          for (size_t c = 0; c < op.tuple.size(); ++c) {
            if (c > 0) text += ",";
            text += std::to_string(op.tuple[c].AsInt64());
          }
          text += ")";
          break;
        }
        case WriteOp::Kind::kUpdate: {
          text += "UPDATE t SET ROW (";
          for (size_t c = 0; c < op.tuple.size(); ++c) {
            if (c > 0) text += ",";
            text += std::to_string(op.tuple[c].AsInt64());
          }
          text += ") WHERE TID (" + std::to_string(op.tid.page_id) + "," +
                  std::to_string(op.tid.slot) + ")";
          break;
        }
        case WriteOp::Kind::kDelete:
          text += "DELETE FROM t WHERE TID (" +
                  std::to_string(op.tid.page_id) + "," +
                  std::to_string(op.tid.slot) + ")";
          break;
      }
    }
    return text;
  };

  for (const uint32_t cap : {1u, 2u, 8u}) {
    // Direct world: the ops as one admission-controlled write spec.
    ServedDb direct(cap, {}, /*with_writes=*/true);
    QuerySpec wspec;
    wspec.writer = direct.writer.get();
    wspec.write_ops = make_ops(direct.db->heap().schema());
    const QueryResult dw = direct.qe->WaitSpec(
        direct.qe->SubmitSpec(std::move(wspec)));
    ASSERT_TRUE(dw.status.ok());
    QuerySpec rspec;
    rspec.index = &direct.db->index();
    rspec.predicate = direct.db->PredicateForSelectivity(0.05);
    rspec.kind = PathKind::kSmoothScan;
    rspec.collect_keys = true;
    const QueryResult dr = direct.qe->WaitSpec(
        direct.qe->SubmitSpec(std::move(rspec)));
    ASSERT_TRUE(dr.status.ok());

    // Wire world: the same ops as chained DML text, then the same read.
    ServedDb world(cap, {}, /*with_writes=*/true);
    WireClient client(world.server->ConnectPipe());
    const std::vector<WriteOp> ops = make_ops(world.db->heap().schema());
    const WireResult ww = client.Wait(client.Submit(ops_text(ops)));
    const std::string label = "write cap " + std::to_string(cap);
    ASSERT_TRUE(ww.complete) << label;
    ASSERT_TRUE(ww.status.ok()) << label << ": " << ww.status.ToString();
    EXPECT_TRUE(ww.metrics.write) << label;
    EXPECT_EQ(dw.metrics.sim_time, ww.metrics.sim_time) << label;
    EXPECT_EQ(dw.metrics.io_time, ww.metrics.io_time) << label;
    EXPECT_EQ(dw.metrics.cpu_time, ww.metrics.cpu_time) << label;
    EXPECT_EQ(dw.metrics.tuples, ww.metrics.tuples) << label;

    const ScanPredicate pred = world.db->PredicateForSelectivity(0.05);
    const WireResult wr = client.Wait(client.Submit(SelectText(pred,
                                                               "smooth", 0)));
    ExpectWireMatchesDirect(dr.metrics, wr, label + " post-write read");
    const std::multiset<int64_t> direct_keys(dr.keys.begin(), dr.keys.end());
    const std::multiset<int64_t> wire_keys(wr.keys.begin(), wr.keys.end());
    EXPECT_EQ(direct_keys, wire_keys) << label;
  }
}

// ----------------------------------------------------------- session surface

TEST(SessionApiTest, HandlesStreamAndDrainWithoutTheWire) {
  // The same Session/QueryHandle surface the server runs each connection on,
  // used directly: streamed batches, Take(), and the destructor's
  // cancel-unwaited contract.
  EngineOptions eo;
  eo.buffer_pool_pages = 512;
  Engine engine(eo);
  MicroBenchSpec spec;
  spec.num_tuples = 20000;
  spec.value_max = 4000;
  spec.seed = 17;
  MicroBenchDb db(&engine, spec);
  QueryEngineOptions qeo;
  qeo.max_admitted = 2;
  QueryEngine qe(&engine, qeo);
  Session session(&qe, SessionOptions{});

  QueryHandle streamed = session.Query()
                             .Table(&db.index())
                             .Predicate(db.PredicateForSelectivity(0.1))
                             .Policy(PathKind::kSmoothScan)
                             .Stream()
                             .Submit();
  uint64_t streamed_rows = 0;
  TupleBatch batch;
  while (streamed.NextBatch(&batch)) streamed_rows += batch.size();
  const QueryResult taken = streamed.Take();
  ASSERT_TRUE(taken.status.ok());
  EXPECT_EQ(streamed_rows, taken.metrics.tuples);
  EXPECT_GT(streamed_rows, 0u);

  {
    // Dropped without Wait(): the handle cancels and reaps on destruction —
    // no leak, no hang, and the session window is released.
    QueryHandle dropped = session.Query()
                              .Table(&db.index())
                              .Predicate(db.PredicateForSelectivity(0.5))
                              .Policy(PathKind::kFullScan)
                              .Submit();
  }
  const QueryResult after = session.Query()
                                .Table(&db.index())
                                .Predicate(db.PredicateForSelectivity(0.01))
                                .Policy(PathKind::kIndexScan)
                                .Run();
  EXPECT_TRUE(after.status.ok());
}

}  // namespace
}  // namespace net
}  // namespace smoothscan
