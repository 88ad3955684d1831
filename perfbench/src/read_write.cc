// read_write: 3 reader clients and 1 writer client, all closed loop, on one
// hot table. The engine runs with a TableVersionRegistry (snapshot reads,
// copy-on-write eras, publish at quiescence), a ScanSharingCoordinator and a
// MemoryBroker.
//
// Readers run Smooth Scans (half of them ordered) and cooperative shared
// scans at 1% to 100% selectivity. The Smooth Scans opt out of sharing: in
// shared Page-ID-Cache mode a read's simulated cost depends on what its
// peers happened to probe (62 to 95 units per read over ten seeds)
// and read goodput halved, which left no run-to-run signal to gate on. The
// writer
// sends 32-op INSERT/UPDATE/DELETE batches through QueryBuilder::Write. Every
// written row carries c2 above value_max, which no read selects, and updates
// and deletes only target pages appended after the load, so the oracle's
// count of every read stays exact while the table grows and churns.

#include <algorithm>
#include <thread>

#include "common/rng.h"
#include "mem/memory_broker.h"
#include "sharing/scan_sharing.h"
#include "workload.h"
#include "write/table_version.h"
#include "write/table_writer.h"

namespace perfbench {
namespace {

using namespace smoothscan;

constexpr uint64_t kTuples = 15000;
constexpr size_t kPoolPages = 128;
constexpr uint32_t kReaders = 3;
constexpr size_t kStrata = 40;
constexpr uint32_t kBatchOps = 32;
/// Pages appended after the load that updates and deletes target (about 20%
/// of the loaded table). Inserts outnumber hits of deletes until about 7/8
/// of the region's slots are live, so the table stops growing there.
constexpr uint64_t kWriteRegionPages = 32;
constexpr uint64_t kBrokerBudget = 256ULL << 20;

TableWriterStats Minus(const TableWriterStats& a, const TableWriterStats& b) {
  TableWriterStats d;
  d.inserts = a.inserts - b.inserts;
  d.updates = a.updates - b.updates;
  d.deletes = a.deletes - b.deletes;
  d.moved_updates = a.moved_updates - b.moved_updates;
  d.recycled_inserts = a.recycled_inserts - b.recycled_inserts;
  d.pages_appended = a.pages_appended - b.pages_appended;
  d.skipped_dead = a.skipped_dead - b.skipped_dead;
  return d;
}

class ReadWrite : public Workload {
 public:
  ~ReadWrite() override { Teardown(); }

  const char* name() const override { return "read_write"; }
  bool deterministic() const override { return false; }

  void Setup(uint64_t seed) override {
    Teardown();
    BuildTable(seed, kTuples, kPoolPages);
    MemoryBrokerOptions bo;
    bo.global_budget_bytes = kBrokerBudget;
    broker_ = std::make_unique<MemoryBroker>(bo);
    versions_ = std::make_unique<TableVersionRegistry>(engine_.get());
    writer_ = std::make_unique<TableWriter>(
        db_->mutable_heap(), std::vector<BPlusTree*>{db_->mutable_index()},
        versions_.get());
    SharedScanOptions sso;
    sso.broker = broker_.get();
    sharing_ = std::make_unique<ScanSharingCoordinator>(engine_.get(), sso);

    base_pages_ = static_cast<PageId>(db_->heap().num_pages());
    tuples_per_page_ = static_cast<uint32_t>(
        (db_->heap().num_tuples() + base_pages_ - 1) / base_pages_);
    next_c1_ = static_cast<int64_t>(db_->heap().num_tuples());
    inserted_ = 0;
    write_rng_ = Rng(seed ^ 0x3717e5ULL);

    Rng rng(seed ^ 0x4ead3717eULL);
    reads_.clear();
    for (size_t s = 0; s < kStrata; ++s) {
      for (int c = 0; c < 3; ++c) {
        ReadSpec r;
        const double sel =
            StratifiedLogUniform(1e-2, 1.0, s, kStrata, rng.UniformDouble());
        RangeFor(sel, db_->value_max(), rng.UniformDouble(), &r.lo, &r.hi);
        r.kind = c == 2 ? PathKind::kSharedScan : PathKind::kSmoothScan;
        r.ordered = c == 1;
        r.sharing = c == 2;
        reads_.push_back(r);
      }
    }
    for (size_t i = reads_.size(); i > 1; --i) {
      std::swap(reads_[i - 1], reads_[static_cast<size_t>(rng.UniformInt(
                                   0, static_cast<int64_t>(i) - 1))]);
    }
    FinishReadList();
  }

  QueryEngineOptions EngineConfig() override {
    QueryEngineOptions o;
    o.max_admitted = kReaders + 1;
    o.sharing = sharing_.get();
    o.versions = versions_.get();
    o.broker = broker_.get();
    o.query_quota_bytes = 1ULL << 30;
    return o;
  }

  PhaseResult RunPhase(double seconds, const Tracing* tracing) override {
    QueryEngineOptions o = EngineConfig();
    if (tracing != nullptr) o.metrics = tracing->registry;
    const TableWriterStats writer_before = writer_->stats();
    const FileId table = db_->heap().file_id();
    const uint64_t epoch_before = versions_->published_epoch(table);
    PhaseResult out;
    {
      QueryEngine qe(engine_.get(), o);
      std::atomic<uint32_t> readers_left{kReaders};
      std::atomic<bool> stop_sampler{false};
      std::vector<LoopTally> tallies(kReaders + 1);
      const PhaseClock clock = PhaseClock::Begin(seconds);
      PassTickets passes(reads_.size(), clock.deadline);
      std::vector<std::thread> clients;
      for (uint32_t c = 0; c < kReaders; ++c) {
        clients.emplace_back([&, c] {
          SessionOptions so;
          so.max_outstanding = 1;
          Session session(&qe, so);
          ClosedLoopReads(&session, this, &passes, tracing, c, &tallies[c]);
          readers_left.fetch_sub(1);
        });
      }
      clients.emplace_back([&] {
        Session session(&qe);
        WriterLoop(&session, &readers_left, tracing, kReaders,
                   &tallies[kReaders]);
      });
      std::thread sampler;
      if (tracing != nullptr) {
        sampler = std::thread([&] { SampleSharing(&stop_sampler, &out); });
      }
      for (std::thread& t : clients) t.join();
      stop_sampler.store(true);
      if (sampler.joinable()) sampler.join();
      MergeTallies(clock, &passes, &tallies, &out);
    }
    out.publishes = versions_->published_epoch(table) - epoch_before;
    // Publish the last era so the table's page and tuple counts are final.
    { auto lease = versions_->AcquireRead(table); }
    out.writer = Minus(writer_->stats(), writer_before);
    return out;
  }

 private:
  void Teardown() {
    // Dependents of the engine go before BuildTable replaces it.
    sharing_.reset();
    writer_.reset();
    versions_.reset();
    broker_.reset();
  }

  Tuple WrittenRow() {
    const int64_t vmax = db_->value_max();
    Tuple t(10);
    t[0] = Value::Int64(next_c1_++);
    t[MicroBenchDb::kIndexedColumn] =
        Value::Int64(write_rng_.UniformInt(vmax + 1, 2 * vmax + 1));
    for (int c = 2; c < 10; ++c) {
      t[c] = Value::Int64(write_rng_.UniformInt(0, vmax));
    }
    return t;
  }

  /// One 32-op batch: 35% inserts, 25% updates, 40% deletes. Update and
  /// delete targets are drawn over the first kWriteRegionPages appended
  /// pages only (those the inserts so far can have filled).
  std::vector<WriteOp> NextBatch() {
    std::vector<WriteOp> ops;
    ops.reserve(kBatchOps);
    for (uint32_t i = 0; i < kBatchOps; ++i) {
      const double pick = write_rng_.UniformDouble();
      const uint64_t appended = std::min<uint64_t>(
          kWriteRegionPages,
          (inserted_ + tuples_per_page_ - 1) / tuples_per_page_);
      if (pick < 0.35 || appended == 0) {
        ops.push_back(WriteOp::MakeInsert(WrittenRow()));
        ++inserted_;
        continue;
      }
      const Tid tid{
          base_pages_ + static_cast<PageId>(write_rng_.UniformInt(
                            0, static_cast<int64_t>(appended) - 1)),
          static_cast<SlotId>(write_rng_.UniformInt(0, tuples_per_page_ - 1))};
      if (pick < 0.6) {
        ops.push_back(WriteOp::MakeUpdate(tid, WrittenRow()));
      } else {
        ops.push_back(WriteOp::MakeDelete(tid));
      }
    }
    return ops;
  }

  /// Closed-loop writer, running while any reader does.
  void WriterLoop(Session* session, const std::atomic<uint32_t>* readers_left,
                  const Tracing* tracing, uint32_t thread, LoopTally* out) {
    SpanLog* spans = tracing != nullptr ? tracing->spans : nullptr;
    while (readers_left->load() > 0) {
      std::vector<WriteOp> ops = NextBatch();
      const int64_t begin_us = spans != nullptr ? spans->NowUs() : 0;
      const Clock::time_point t0 = Clock::now();
      QueryHandle handle =
          session->Query().Write(writer_.get(), std::move(ops)).Submit();
      const QueryResult& result = handle.Wait();
      WriteSample w;
      w.done = Clock::now();
      w.latency_ms = MsBetween(t0, w.done);
      w.ops = kBatchOps;
      w.ok = result.status.ok();
      if (spans != nullptr) {
        spans->Add(Span{"session.write", handle.id(), thread, begin_us,
                        spans->NowUs(), result.metrics.queue_wait_ms,
                        result.metrics.exec_ms, result.metrics.tuples});
      }
      ++out->attempted;
      if (!w.ok) ++out->failed;
      out->writes.push_back(w);
    }
  }

  /// ScanSharingCoordinator::stats() sums live groups only, and a publish
  /// retires the table's group. The sampler banks the last sample of a group
  /// whenever a counter falls (a retirement), so its totals are a sampled
  /// lower bound: claims made after the last sample of a group are lost.
  void SampleSharing(const std::atomic<bool>* stop, PhaseResult* out) {
    ScanSharingStats last;
    uint64_t banked_claims = 0;
    uint64_t banked_chunks = 0;
    while (!stop->load()) {
      const ScanSharingStats s = sharing_->stats();
      if (s.chunks_produced < last.chunks_produced ||
          s.chunk_claims < last.chunk_claims ||
          s.consumers_attached < last.consumers_attached) {
        banked_claims += last.chunk_claims;
        banked_chunks += last.chunks_produced;
      }
      last = s;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    out->sampled_chunk_claims = banked_claims + last.chunk_claims;
    out->sampled_chunks = banked_chunks + last.chunks_produced;
  }

  std::unique_ptr<MemoryBroker> broker_;
  std::unique_ptr<TableVersionRegistry> versions_;
  std::unique_ptr<TableWriter> writer_;
  std::unique_ptr<ScanSharingCoordinator> sharing_;
  PageId base_pages_ = 0;
  uint32_t tuples_per_page_ = 1;
  int64_t next_c1_ = 0;
  uint64_t inserted_ = 0;
  Rng write_rng_;
};

}  // namespace

std::unique_ptr<Workload> MakeReadWrite() {
  return std::make_unique<ReadWrite>();
}

}  // namespace perfbench
