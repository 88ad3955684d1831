#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

using namespace smoothscan;

namespace {

const char* PolicyText(PathKind kind) {
  switch (kind) {
    case PathKind::kFullScan:
      return "full";
    case PathKind::kIndexScan:
      return "index";
    case PathKind::kSortScan:
      return "sort";
    case PathKind::kSwitchScan:
      return "switch";
    case PathKind::kSmoothScan:
      return "smooth";
    case PathKind::kSharedScan:
      return "shared";
    case PathKind::kCompressedScan:
      return "compressed";
  }
  return "smooth";
}

Failure Classify(bool status_ok, const RowCheck& check, uint64_t tuples,
                 uint64_t expected) {
  if (!status_ok) return Failure::kStatus;
  if (check.rows != expected || tuples != expected) return Failure::kRowCount;
  if (!check.ordered) return Failure::kOrder;
  return Failure::kNone;
}

}  // namespace

std::string Workload::QueryText(const ReadSpec& r) const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "SELECT * FROM %s WHERE C%d >= %lld AND C%d < %lld%s "
                "WITH (POLICY=%s, DOP=%u, SHARING=%d)",
                r.chooser ? kStatsTable[r.stats] : kStatsTable[1],
                MicroBenchDb::kIndexedColumn, static_cast<long long>(r.lo),
                MicroBenchDb::kIndexedColumn, static_cast<long long>(r.hi),
                r.ordered ? " ORDER BY KEY" : "",
                r.chooser ? "auto" : PolicyText(r.kind), r.dop,
                r.sharing ? 1 : 0);
  return buf;
}

void Workload::BuildTable(uint64_t seed, uint64_t tuples, size_t pool_pages) {
  // Tear down in dependency order before rebuilding: everything below holds
  // pointers into the engine.
  ledger_.reset();
  compressed_.reset();
  catalog_ = QueryCatalog();
  db_.reset();
  engine_.reset();

  EngineOptions eo;
  eo.buffer_pool_pages = pool_pages;
  engine_ = std::make_unique<Engine>(eo);
  MicroBenchSpec spec;
  spec.num_tuples = tuples;
  spec.seed = seed;
  db_ = std::make_unique<MicroBenchDb>(engine_.get(), spec);

  const TableStats honest =
      TableStats::Compute(db_->heap(), MicroBenchDb::kIndexedColumn);
  for (size_t v = 0; v < stats_.size(); ++v) {
    stats_[v] = honest;
    stats_[v].CorruptScale(kStatsScale[v]);
  }
  CostModelParams params = CostModelParams::ForDevice(
      eo.device, db_->heap().num_tuples(),
      eo.page_size / std::max<uint64_t>(1, db_->heap().num_tuples() /
                                               db_->heap().num_pages()),
      eo.page_size);
  model_ = std::make_unique<CostModel>(params);
  for (size_t v = 0; v < stats_.size(); ++v) {
    TableBinding binding;
    binding.index = &db_->index();
    binding.stats = &stats_[v];
    binding.cost_model = model_.get();
    catalog_.Register(kStatsTable[v], binding);
  }
  oracle_ = CountOracle(db_->heap(), MicroBenchDb::kIndexedColumn);
}

void Workload::FinishReadList() {
  for (ReadSpec& r : reads_) r.expected = oracle_.Count(r.lo, r.hi);
  ledger_ = std::make_unique<SimCostLedger>(reads_.size());
}

double StratifiedLogUniform(double lo, double hi, size_t i, size_t n,
                            double u) {
  const double a = std::log10(lo);
  const double b = std::log10(hi);
  const double x = (static_cast<double>(i) + u) / static_cast<double>(n);
  return std::pow(10.0, a + (b - a) * x);
}

void RangeFor(double selectivity, int64_t value_max, double u, int64_t* lo,
              int64_t* hi) {
  const int64_t domain = value_max + 1;
  int64_t width = static_cast<int64_t>(
      std::llround(selectivity * static_cast<double>(domain)));
  width = std::clamp<int64_t>(width, 1, domain);
  *lo = static_cast<int64_t>(u * static_cast<double>(domain - width + 1));
  *lo = std::clamp<int64_t>(*lo, 0, domain - width);
  *hi = *lo + width;
}

ReadSample SessionRead(Session* session, Workload* w, uint32_t index,
                       SpanLog* spans, uint32_t thread) {
  return SessionRead(session, *w, w->reads()[index], index, spans, thread);
}

ReadSample SessionRead(Session* session, const Workload& w, const ReadSpec& r,
                       uint32_t index, SpanLog* spans, uint32_t thread) {
  ScanPredicate pred;
  pred.column = MicroBenchDb::kIndexedColumn;
  pred.lo = r.lo;
  pred.hi = r.hi;
  QueryBuilder qb = session->Query();
  qb.Table(&w.db().index())
      .Predicate(pred)
      .Ordered(r.ordered)
      .Dop(r.dop)
      .AllowSharing(r.sharing)
      .Stream();
  if (r.chooser) {
    qb.UseChooser(&w.stats(r.stats), &w.model());
  } else {
    qb.Policy(r.kind);
  }

  const int64_t begin_us = spans != nullptr ? spans->NowUs() : 0;
  const Clock::time_point t0 = Clock::now();
  QueryHandle handle = qb.Submit();
  RowCheck check;
  check.need_order = r.ordered;
  TupleBatch batch;
  while (handle.NextBatch(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      check.Feed(batch.row(i)[MicroBenchDb::kIndexedColumn].AsInt64());
    }
  }
  const QueryResult& result = handle.Wait();
  ReadSample s;
  s.index = index;
  s.latency_ms = MsBetween(t0, Clock::now());
  s.rows = check.rows;
  s.metrics = result.metrics;
  s.failure = Classify(result.status.ok(), check, result.metrics.tuples,
                       r.expected);
  if (spans != nullptr) {
    spans->Add(Span{"session.read", handle.id(), thread, begin_us,
                    spans->NowUs(), result.metrics.queue_wait_ms,
                    result.metrics.exec_ms, check.rows});
  }
  return s;
}

ReadSample WireRead(net::WireClient* client, Workload* w, uint32_t index,
                    SpanLog* spans, uint32_t thread) {
  const ReadSpec& r = w->reads()[index];
  const std::string text = w->QueryText(r);
  const int64_t begin_us = spans != nullptr ? spans->NowUs() : 0;
  const Clock::time_point t0 = Clock::now();
  const uint64_t tag = client->Submit(text);
  const net::WireResult result = client->Wait(tag);
  ReadSample s;
  s.index = index;
  s.latency_ms = MsBetween(t0, Clock::now());
  RowCheck check;
  check.need_order = r.ordered;
  for (const std::vector<int64_t>& row : result.rows) {
    check.Feed(row[MicroBenchDb::kIndexedColumn]);
  }
  s.rows = check.rows;
  s.metrics = result.metrics;
  s.failure = Classify(result.complete && result.status.ok(), check,
                       result.metrics.tuples, r.expected);
  if (spans != nullptr) {
    spans->Add(Span{"wire.read", tag, thread, begin_us, spans->NowUs(),
                    result.metrics.queue_wait_ms, result.metrics.exec_ms,
                    check.rows});
  }
  return s;
}

PhaseClock PhaseClock::Begin(double seconds) {
  PhaseClock c;
  c.start = Clock::now();
  const double warm = std::min(1.0, 0.1 * seconds);
  c.warm_end = c.start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(warm));
  c.deadline = c.start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
  return c;
}

void LoopTally::Count(const ReadSample& s) {
  ++attempted;
  ++reads_done;
  if (s.ok()) return;
  ++failed;
  static constexpr const char* kCause[] = {"none", "status", "row_count",
                                           "order"};
  ++failures[std::string(kCause[static_cast<int>(s.failure)]) + "/" +
             smoothscan::PathKindToString(s.metrics.kind)];
}

bool PassTickets::Next(uint64_t* ticket) {
  const uint64_t t = next_.fetch_add(1);
  if (t >= stop_at_.load()) return false;
  if (t == n_) {
    timed_start_ns_.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
  }
  *ticket = t;
  return true;
}

void PassTickets::MaybeStop() {
  if (stop_at_.load() != UINT64_MAX || Clock::now() < deadline_) return;
  const uint64_t issued = next_.load();
  const uint64_t stop = std::max(2 * n_, (issued + n_ - 1) / n_ * n_);
  uint64_t expected = UINT64_MAX;
  stop_at_.compare_exchange_strong(expected, stop);
}

Clock::time_point PassTickets::timed_start() const {
  return Clock::time_point(std::chrono::duration_cast<Clock::duration>(
      std::chrono::nanoseconds(timed_start_ns_.load())));
}

void MergeTallies(const PhaseClock& clock, const PassTickets* passes,
                  std::vector<LoopTally>* tallies, PhaseResult* out) {
  const Clock::time_point base =
      passes != nullptr ? passes->timed_start() : clock.warm_end;
  Clock::time_point last = base;
  for (LoopTally& t : *tallies) {
    for (ReadSample& s : t.reads) {
      const bool timed = passes != nullptr
                             ? s.ticket >= passes->list_size() &&
                                   s.ticket < passes->stop_at()
                             : s.done >= base;
      if (!timed) continue;
      last = std::max(last, s.done);
      out->reads.push_back(std::move(s));
    }
    out->send_lag_ms.insert(out->send_lag_ms.end(), t.send_lag_ms.begin(),
                            t.send_lag_ms.end());
    out->attempted += t.attempted;
    out->failed += t.failed;
    out->reads_done += t.reads_done;
    for (const auto& [cause, n] : t.failures) out->failures[cause] += n;
  }
  for (LoopTally& t : *tallies) {
    for (const WriteSample& w : t.writes) {
      if (w.done >= base && w.done <= last) out->writes.push_back(w);
    }
  }
  out->seconds = std::chrono::duration<double>(last - base).count();
  out->base = base;
  if (passes != nullptr) {
    std::sort(out->reads.begin(), out->reads.end(),
              [](const ReadSample& a, const ReadSample& b) {
                return a.ticket < b.ticket;
              });
    const uint64_t n = passes->list_size();
    out->window = (kMinWindowReads + n - 1) / n * n;
  } else {
    std::sort(out->reads.begin(), out->reads.end(),
              [](const ReadSample& a, const ReadSample& b) {
                return a.done < b.done;
              });
    out->window = kMinWindowReads;
  }
}

void ClosedLoopReads(smoothscan::Session* session, Workload* w,
                     PassTickets* passes, const Tracing* tracing,
                     uint32_t thread, LoopTally* out) {
  SimCostLedger* ledger = w->deterministic() ? w->ledger() : nullptr;
  SpanLog* spans = tracing != nullptr ? tracing->spans : nullptr;
  uint64_t ticket = 0;
  while (passes->Next(&ticket)) {
    const uint32_t index =
        static_cast<uint32_t>(ticket % passes->list_size());
    ReadSample s = SessionRead(session, w, index, spans, thread);
    if (ledger != nullptr) ledger->Record(index, s.metrics.sim_time);
    out->Count(s);
    s.ticket = ticket;
    s.done = Clock::now();
    out->reads.push_back(std::move(s));
    passes->MaybeStop();
  }
}

}  // namespace perfbench
