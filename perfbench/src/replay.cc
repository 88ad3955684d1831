// Layer replay, the second part of the traced run. A single client replays a
// seeded sample of the workload's reads serially at each entry depth:
//   raw   — the access path the engine would build (MakePath /
//           MakeParallelPath / CompressedScan) drained over a fresh
//           per-query accounting context, as QueryEngine::Execute does;
//   session — the same read through a Session;
//   wire  — the same read as query text over a WireClient on a Pipe.
// Each layer's self time falls out by subtraction (session - raw is the
// engine's share, wire - session the network's). The sample is stratified
// by plan, so every path the workload runs is timed.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>

#include "common/rng.h"
#include "compress/compressed_scan.h"
#include "plan/access_path_chooser.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace smoothscan;

constexpr size_t kPerCategory = 4;
constexpr int kReps = 3;

/// The plan the engine resolves for a read (same inputs as Execute).
struct Plan {
  PathKind kind = PathKind::kFullScan;
  uint64_t estimate = 0;
};

Plan Resolve(Workload* w, const ReadSpec& r, bool sharing_on,
             CompressedExtentRef extent) {
  Plan p;
  p.kind = r.kind;
  if (r.chooser) {
    ChooserOptions copts;
    copts.need_order = r.ordered;
    copts.dop = std::max<uint32_t>(1, r.dop);
    copts.sharing_available = sharing_on && r.sharing;
    CompressedPathInfo cinfo;
    static constexpr CalibratedCpuModel kCpu{};
    if (extent != nullptr) {
      cinfo.pages = extent->num_pages();
      cinfo.tuples = extent->num_tuples;
      cinfo.avg_run_length = extent->avg_run_length();
      copts.compressed = &cinfo;
      copts.cpu = &kCpu;
    }
    const PlanChoice choice = AccessPathChooser::Choose(
        w->stats(r.stats), w->model(), r.lo, r.hi, copts);
    p.kind = choice.kind;
    p.estimate = choice.estimated_cardinality;
  }
  if (p.kind == PathKind::kSharedScan &&
      (!(sharing_on && r.sharing) || r.ordered)) {
    p.kind = PathKind::kFullScan;
  }
  if (p.kind == PathKind::kCompressedScan && extent == nullptr) {
    p.kind = PathKind::kFullScan;
  }
  return p;
}

/// One raw drain: wall time, rows, and the path's own counters.
struct RawRun {
  double ns = 0.0;
  uint64_t rows = 0;
  AccessPathStats stats;
  SmoothScanStats smooth;
};

RawRun DrainRaw(Workload* w, const ReadSpec& r, const Plan& p, uint32_t dop,
                CompressedExtentRef extent) {
  Engine* engine = w->engine();
  ScanPredicate pred;
  pred.column = MicroBenchDb::kIndexedColumn;
  pred.lo = r.lo;
  pred.hi = r.hi;
  QueryContext qctx(engine, &engine->pool());
  ParallelScanOptions po;
  po.dop = dop;
  po.scheduler = w->scheduler();
  po.account_disk = &qctx.disk();
  po.account_cpu = &qctx.cpu();
  po.mirror_pool = &engine->pool();

  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<AccessPath> path;
  if (p.kind == PathKind::kCompressedScan) {
    if (dop >= 1) {
      path = MakeParallelCompressedScan(engine, extent, pred,
                                        CompressedScanOptions(), po);
    }
    if (path == nullptr) {
      path = std::make_unique<CompressedScan>(engine, extent, pred);
      path->SetExecContext(&qctx.ctx());
    }
  } else {
    // A shared scan's solo equivalent is the plain full scan.
    const PathKind kind =
        p.kind == PathKind::kSharedScan ? PathKind::kFullScan : p.kind;
    if (dop >= 1) {
      path = MakeParallelPath(kind, &w->db().index(), pred, r.ordered,
                              p.estimate, po);
    }
    if (path == nullptr) {
      path = MakePath(kind, &w->db().index(), pred, r.ordered, p.estimate);
      path->SetExecContext(&qctx.ctx());
    }
  }
  RawRun run;
  SMOOTHSCAN_CHECK(path->Open().ok());
  TupleBatch batch;
  while (path->NextBatch(&batch)) run.rows += batch.size();
  path->Close();
  run.ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  run.stats = path->stats();
  if (const auto* smooth = dynamic_cast<const SmoothScan*>(path.get())) {
    run.smooth = smooth->smooth_stats();
  }
  return run;
}

/// Index layer alone: BPlusTree::Seek plus iterating the range.
double SeekUs(Workload* w, const ReadSpec& r) {
  QueryContext qctx(w->engine(), &w->engine()->pool());
  const Clock::time_point t0 = Clock::now();
  BPlusTree::Iterator it = w->db().index().Seek(r.lo, &qctx.ctx());
  uint64_t n = 0;
  while (it.Valid() && it.key() < r.hi) {
    ++n;
    it.Next();
  }
  const double us = UsBetween(t0, Clock::now());
  SMOOTHSCAN_CHECK(n == r.expected);
  return us;
}

const char* Category(const ReadSpec& r, const Plan& p) {
  if (r.dop >= 1) return "par";
  switch (p.kind) {
    case PathKind::kFullScan:
    case PathKind::kSharedScan:
      return "full";
    case PathKind::kIndexScan:
      return "index";
    case PathKind::kSortScan:
      return "sort";
    case PathKind::kSwitchScan:
      return "switch";
    case PathKind::kSmoothScan:
      return r.ordered ? "smooth_ordered" : "smooth";
    case PathKind::kCompressedScan:
      return "compressed";
  }
  return "full";
}

/// Sum of nanoseconds and rows, for ns-per-row ratios.
struct NsRows {
  double ns = 0.0;
  double rows = 0.0;
  double PerRow() const { return rows > 0 ? ns / rows : 0.0; }
};

}  // namespace

ReplayCounts ReplayLayers(Workload* w, uint64_t seed, double budget_seconds,
                          Report* report) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget_seconds));
  const QueryEngineOptions options = w->EngineConfig();
  const bool sharing_on = options.sharing != nullptr;
  CompressedExtentRef extent;
  if (w->compressed() != nullptr) {
    extent = w->compressed()->Lookup(w->db().heap().file_id());
  }

  // Seeded, plan-stratified sample of the read list.
  const std::vector<ReadSpec>& reads = w->reads();
  std::vector<uint32_t> order(reads.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(seed ^ 0x4e91a7ULL);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<size_t>(rng.UniformInt(
                                0, static_cast<int64_t>(i) - 1))]);
  }
  std::map<std::string, size_t> taken;
  std::vector<std::pair<uint32_t, Plan>> sample;
  for (uint32_t i : order) {
    const ReadSpec& r = reads[i];
    const Plan p = Resolve(w, r, sharing_on, r.ordered ? nullptr : extent);
    if (taken[Category(r, p)]++ < kPerCategory) sample.emplace_back(i, p);
  }

  QueryEngine qe(w->engine(), options);
  net::Server server(&qe, &w->catalog());
  net::WireClient client(server.ConnectPipe());
  client.Hello("batch", 1);
  SessionOptions so;
  so.max_outstanding = 1;
  Session session(&qe, so);

  ReplayCounts counts;
  std::map<std::string, NsRows> by_kind;
  NsRows compress, par, wire_self;
  double par_serial_ns = 0.0;
  uint64_t inspected = 0, produced = 0, rc_hits = 0, rc_probes = 0;
  uint64_t morph_result = 0, morph_checked = 0;
  std::vector<double> raw_us, session_self_us, wire_self_us, seek_us,
      parse_us, choose_us;
  for (const auto& [index, plan] : sample) {
    if (Clock::now() >= deadline) break;
    const ReadSpec& r = reads[index];
    const CompressedExtentRef ext = r.ordered ? nullptr : extent;
    std::vector<double> raw_ns, serial_ns, session_ms, wire_ms;
    RawRun raw;
    for (int rep = 0; rep < kReps; ++rep) {
      raw = DrainRaw(w, r, plan, r.dop, ext);
      raw_ns.push_back(raw.ns);
      if (r.dop >= 1) serial_ns.push_back(DrainRaw(w, r, plan, 0, ext).ns);
      const ReadSample s = SessionRead(&session, w, index, nullptr, 0);
      const ReadSample x = WireRead(&client, w, index, nullptr, 0);
      session_ms.push_back(s.latency_ms);
      wire_ms.push_back(x.latency_ms);
      counts.attempted += 2;
      counts.failed += (s.ok() ? 0 : 1) + (x.ok() ? 0 : 1);
    }
    const double raw_med = Median(raw_ns);
    const double session_med = Median(session_ms) * 1e6;
    const double wire_med = Median(wire_ms) * 1e6;
    raw_us.push_back(raw_med / 1e3);
    session_self_us.push_back((session_med - raw_med) / 1e3);
    wire_self_us.push_back((wire_med - session_med) / 1e3);
    wire_self.ns += wire_med - session_med;
    wire_self.rows += static_cast<double>(raw.rows);
    if (r.dop >= 1) {
      par.ns += raw_med;
      par.rows += static_cast<double>(raw.rows);
      par_serial_ns += Median(serial_ns);
    } else if (plan.kind == PathKind::kCompressedScan) {
      compress.ns += raw_med;
      compress.rows += static_cast<double>(raw.rows);
    } else {
      NsRows& k = by_kind[Category(r, plan)];
      k.ns += raw_med;
      k.rows += static_cast<double>(raw.rows);
    }
    inspected += raw.stats.tuples_inspected;
    produced += raw.stats.tuples_produced;
    rc_hits += raw.smooth.rc_hits;
    rc_probes += raw.smooth.rc_probes;
    morph_result += raw.smooth.morph_result_pages;
    morph_checked += raw.smooth.morph_checked_pages;

    seek_us.push_back(SeekUs(w, r));
    const std::string text = w->QueryText(r);
    const Clock::time_point p0 = Clock::now();
    Result<ParsedStatement> parsed = ParseQueryText(text);
    SMOOTHSCAN_CHECK(parsed.ok());
    SMOOTHSCAN_CHECK(BindStatement(w->catalog(), parsed.value()).ok());
    parse_us.push_back(UsBetween(p0, Clock::now()));
    if (r.chooser) {
      const Clock::time_point c0 = Clock::now();
      (void)Resolve(w, r, sharing_on, ext);
      choose_us.push_back(UsBetween(c0, Clock::now()));
    }
  }
  client.Close();
  server.Stop();

  auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const uint64_t n = raw_us.size();
  report->Add("access.us_per_query", mean(raw_us), "us", n);
  for (const char* k : {"full", "index", "sort", "smooth", "smooth_ordered"}) {
    report->Add(std::string("access.ns_per_row.") + k, by_kind[k].PerRow(),
                "ns/row", static_cast<uint64_t>(by_kind[k].rows));
  }
  report->Add("access.inspected_per_row",
              ratio(static_cast<double>(inspected),
                    static_cast<double>(produced)),
              "ratio");
  report->Add("access.rc_hit_ratio",
              ratio(static_cast<double>(rc_hits),
                    static_cast<double>(rc_probes)),
              "ratio", rc_probes);
  report->Add("access.morph_useful_ratio",
              ratio(static_cast<double>(morph_result),
                    static_cast<double>(morph_checked)),
              "ratio", morph_checked);
  report->Add("compress.ns_per_row", compress.PerRow(), "ns/row",
              static_cast<uint64_t>(compress.rows));
  report->Add("exec.par_ns_per_row", par.PerRow(), "ns/row",
              static_cast<uint64_t>(par.rows));
  report->Add("exec.par_speedup", ratio(par_serial_ns, par.ns), "ratio");
  report->Add("index.seek_us", mean(seek_us), "us", seek_us.size());
  report->Add("plan.parse_bind_us", mean(parse_us), "us", parse_us.size());
  report->Add("plan.choose_us", mean(choose_us), "us", choose_us.size());
  report->Add("engine.session_us_per_query", mean(session_self_us), "us", n);
  report->Add("net.wire_us_per_query", mean(wire_self_us), "us", n);
  report->Add("net.wire_ns_per_row", wire_self.PerRow(), "ns/row",
              static_cast<uint64_t>(wire_self.rows));
  return counts;
}

ReplayCounts OrderDefectProbe(Workload* w, Report* report) {
  QueryEngine qe(w->engine(), w->EngineConfig());
  SessionOptions so;
  so.max_outstanding = 1;
  Session session(&qe, so);
  ReplayCounts counts;
  uint64_t probed = 0, unsorted = 0;
  std::map<std::string, uint64_t> by_plan;
  const std::vector<ReadSpec>& reads = w->reads();
  for (uint32_t i = 0; i < reads.size(); ++i) {
    if (!reads[i].ordered || reads[i].chooser) continue;
    ReadSpec r = reads[i];
    r.chooser = true;
    r.stats = static_cast<int>(probed % kStatsScale.size());
    r.sharing = false;
    ++probed;
    const ReadSample s = SessionRead(&session, *w, r, i, nullptr, 0);
    if (s.failure == Failure::kOrder) {
      ++unsorted;
      ++by_plan[PathKindToString(s.metrics.kind)];
      continue;
    }
    ++counts.attempted;
    if (!s.ok()) ++counts.failed;
  }
  std::printf("# known-defect probe: %" PRIu64 " of %" PRIu64
              " ordered reads re-planned by the chooser came back out of key "
              "order",
              unsorted, probed);
  for (const auto& [plan, n] : by_plan) {
    std::printf(" (%s: %" PRIu64 ")", plan.c_str(), n);
  }
  std::printf("\n");
  report->Add("plan.ordered_unsorted_frac",
              probed > 0 ? static_cast<double>(unsorted) / probed : 0.0,
              "ratio", probed);
  return counts;
}

}  // namespace perfbench
