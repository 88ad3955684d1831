// perfbench: the repo benchmark. Runs one workload against the engine's
// public surface and prints, as its last stdout line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   perfbench --workload scan_mix|lookup_wire|read_write --seed N
//             --seconds S --trace 0|1 [--out DIR]
//
// --trace 0 measures the end-to-end metrics (untraced). --trace 1 splits the
// time in three: the workload untraced, the workload traced (benchmark-side
// spans around every Session / WireClient / QueryBuilder::Write call plus an
// engine MetricsRegistry), and a serial layer replay; it prints the
// per-layer metrics and writes the spans to DIR as Chrome trace JSON.
//
// Every read is verified (row count against an oracle over the generated c2
// values, key order for ordered reads); a wrong, failed or refused result
// counts in `failed` and in error_frac. The traced run also probes a known
// defect outside the mix (ordered reads planned by the chooser come back out
// of key order): those results are reported as plan.ordered_unsorted_frac,
// not counted as failed reads of the workload. `correct` is false when the
// benchmark's own checks fail: on a deterministic workload a read charged a
// different simulated cost than its first run, or the run's cost digest
// differs from the one an earlier run of the same seed recorded in DIR; or
// nothing was attempted.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "workload.h"
#include "write/table_writer.h"

using namespace perfbench;
using smoothscan::PathKind;

namespace {

/// Set-ups per run: kSetupsBefore before the timed phase (the last one is
/// used), the rest after it on a fresh instance, so the median samples the
/// host at both ends of the run (same-process set-ups agree to a few
/// percent; the host's load drifts over seconds).
constexpr int kSetups = 9;
constexpr int kSetupsBefore = 5;

struct Args {
  std::string exe;  ///< argv[0]: identifies the binary for the digest file.
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_build/perfbench/out";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  a->exe = argv[0];
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a->trace = std::strcmp(v, "0") != 0;
    } else if (k == "--out") {
      a->out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

std::unique_ptr<Workload> Make(const std::string& name) {
  if (name == "scan_mix") return MakeScanMix();
  if (name == "lookup_wire") return MakeLookupWire();
  if (name == "read_write") return MakeReadWrite();
  return nullptr;
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

double MeanLatency(const PhaseResult& p) {
  double sum = 0.0;
  for (const ReadSample& s : p.reads) sum += s.latency_ms;
  return p.reads.empty() ? 0.0 : sum / static_cast<double>(p.reads.size());
}

/// Heap bytes over live tuple bytes of the workload's table.
double SpaceAmp(Workload* w) {
  const smoothscan::HeapFile& heap = w->db().heap();
  smoothscan::Tuple row(heap.schema().num_columns());
  for (auto& v : row) v = smoothscan::Value::Int64(0);
  const double live = static_cast<double>(heap.num_tuples()) *
                      heap.schema().SerializedSize(row);
  return Ratio(static_cast<double>(heap.num_pages()) *
                   w->engine()->options().page_size,
               live);
}

/// Per-window figures of the timed reads (see PhaseResult::window).
struct Windows {
  std::vector<double> goodput, rows_per_s, p50, p99;
  uint64_t reads = 0;  ///< Reads in all full windows.
};

Windows SplitWindows(const PhaseResult& p) {
  Windows out;
  const size_t size = std::min<size_t>(p.window, p.reads.size());
  Clock::time_point prev = p.base;
  for (size_t begin = 0; size > 0 && begin + size <= p.reads.size();
       begin += size) {
    std::vector<double> lat;
    uint64_t ok = 0, rows = 0;
    Clock::time_point end = prev;
    for (size_t i = begin; i < begin + size; ++i) {
      const ReadSample& s = p.reads[i];
      lat.push_back(s.latency_ms);
      ok += s.ok() ? 1 : 0;
      rows += s.rows;
      end = std::max(end, s.done);
    }
    const double secs = std::chrono::duration<double>(end - prev).count();
    prev = end;
    out.goodput.push_back(Ratio(ok, secs));
    out.rows_per_s.push_back(Ratio(rows, secs));
    out.p50.push_back(Percentile(lat, 0.5));
    out.p99.push_back(Percentile(lat, 0.99));
    out.reads += size;
  }
  return out;
}

/// The gated figures, taken in process CPU time rather than wall time. On
/// the shared 4-vCPU virtual machine the benchmark was tuned on, hypervisor
/// steal moved between 0% and 35% of the vCPUs' time from one minute to the
/// next; with it the same code's read goodput moved by up to 50% and
/// lookup_wire's p99 five-fold, while CPU time per read moved by 8% to 17%.
/// Set-up is single-threaded, so its CPU time is its duration less steal.
void EndToEnd(Workload* w, const PhaseResult& p, double setup_s,
              double phase_cpu_s, Report* report) {
  report->Add("setup_s", setup_s, "s", kSetups);
  report->Add("cpu_ms_per_query", Ratio(phase_cpu_s * 1e3, p.reads_done),
              "ms", p.reads_done);
  if (w->deterministic()) {
    report->Add("sim_cost_per_query", w->ledger()->Mean(), "sim_units",
                w->reads().size());
  } else {
    double sim = 0.0;
    for (const ReadSample& s : p.reads) sim += s.metrics.sim_time;
    report->Add("sim_cost_per_query", Ratio(sim, p.reads.size()),
                "sim_units", p.reads.size());
  }
}

/// Wall-clock figures a user sees. Rates and the median latency are medians
/// over the run's windows. The p99 is the lower quartile over windows of each
/// window's p99: stalls of the host (a few ms, several times a second on a
/// shared VM) only ever add latency, and a lookup_wire request takes 0.2 ms,
/// so one stall lifts a window's p99; over ten runs the median over windows
/// spread by 35%, the lower quartile 14%.
void WallClock(const PhaseResult& p, Report* report) {
  const Windows win = SplitWindows(p);
  std::printf("# %zu windows of %" PRIu64 " reads (%" PRIu64
              " timed reads in %.3f s)\n",
              win.goodput.size(), p.window, p.reads.size(), p.seconds);
  const uint64_t n = win.reads;
  report->Add("goodput_qps", Median(win.goodput), "1/s", n);
  report->Add("rows_per_s", Median(win.rows_per_s), "rows/s", n);
  report->Add("latency_p50_ms", Median(win.p50), "ms", n);
  report->Add("latency_p99_ms", Percentile(win.p99, 0.25), "ms", n);
}

/// End-to-end figures outside the gated set, reported with the per-layer
/// metrics: the wall-clock ones (see EndToEnd for why they are not gated),
/// those that exist on some workloads only (0 elsewhere; the gated set must
/// be non-zero on every workload), and peak_rss_mb, which on
/// read_write follows the longest gap between publishes (the pending era
/// grows with every write until the readers leave the table quiescent) and
/// moved by more than any allowed bound between runs of one seed. Peak RSS is
/// read at the end of the run.
void OtherEndToEnd(Workload* w, const PhaseResult& p, Report* report) {
  WallClock(p, report);
  std::vector<double> wlat;
  uint64_t ops = 0;
  for (const WriteSample& s : p.writes) {
    wlat.push_back(s.latency_ms);
    ops += s.ok ? s.ops : 0;
  }
  report->Add("error_frac", Ratio(p.failed, p.attempted), "ratio",
              p.attempted);
  report->Add("write_ops_per_s", Ratio(ops, p.seconds), "1/s", wlat.size());
  report->Add("write_p99_ms", Percentile(wlat, 0.99), "ms", wlat.size());
  report->Add("space_amp", SpaceAmp(w), "ratio");
  report->Add("send_lag_p99_ms", Percentile(p.send_lag_ms, 0.99), "ms",
              p.send_lag_ms.size());
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
}

/// Per-layer figures of the traced phase (the replay adds its own).
void TracedLayers(const PhaseResult& p, const PhaseResult& untraced,
                  const smoothscan::obs::MetricsSnapshot& reg,
                  Report* report) {
  std::vector<double> qwait, exec, mem_kb;
  double pages = 0, random = 0, requests = 0;
  uint64_t kinds[smoothscan::kNumPathKinds] = {};
  for (const ReadSample& s : p.reads) {
    qwait.push_back(s.metrics.queue_wait_ms);
    exec.push_back(s.metrics.exec_ms);
    mem_kb.push_back(static_cast<double>(s.metrics.mem_peak_bytes) / 1024.0);
    pages += static_cast<double>(s.metrics.pages_read);
    random += static_cast<double>(s.metrics.random_ios);
    requests += static_cast<double>(s.metrics.io_requests);
    ++kinds[static_cast<int>(s.metrics.kind)];
  }
  const uint64_t n = p.reads.size();
  report->Add("storage.pages_read_per_query", Ratio(pages, n), "pages", n);
  report->Add("storage.random_io_frac", Ratio(random, requests), "ratio");
  const double hits = reg.Value("bufferpool.hits");
  const double misses = reg.Value("bufferpool.misses");
  report->Add("storage.pool_hit_ratio", Ratio(hits, hits + misses), "ratio");
  report->Add("storage.write_backs", reg.Value("bufferpool.write_backs"),
              "count");
  for (int k = 0; k < smoothscan::kNumPathKinds; ++k) {
    report->Add(std::string("plan.kind_share.") +
                    smoothscan::PathKindToString(static_cast<PathKind>(k)),
                Ratio(kinds[k], n), "ratio", kinds[k]);
  }
  report->Add("engine.queue_wait_p99_ms", Percentile(qwait, 0.99), "ms", n);
  report->Add("engine.exec_ms_p50", Percentile(exec, 0.5), "ms", n);
  report->Add("net.window_stalls", p.server.window_stalls, "count");
  report->Add("net.backpressure_shrinks", p.server.backpressure_shrinks,
              "count");
  report->Add("net.queries_error", p.server.queries_error, "count");
  report->Add("sharing.fanout",
              Ratio(p.sampled_chunk_claims, p.sampled_chunks), "ratio",
              p.sampled_chunks);
  double write_ms = 0;
  uint64_t write_ops = 0;
  for (const WriteSample& s : p.writes) {
    write_ms += s.latency_ms;
    write_ops += s.ops;
  }
  report->Add("write.us_per_op", Ratio(write_ms * 1e3, write_ops), "us",
              write_ops);
  report->Add("write.moved_update_frac",
              Ratio(p.writer.moved_updates, p.writer.updates), "ratio",
              p.writer.updates);
  report->Add("write.recycled_insert_frac",
              Ratio(p.writer.recycled_inserts, p.writer.inserts), "ratio",
              p.writer.inserts);
  report->Add("write.pages_appended", p.writer.pages_appended, "pages");
  report->Add("write.publishes_per_s", Ratio(p.publishes, p.seconds), "1/s",
              p.publishes);
  report->Add("mem.query_peak_kb_p99", Percentile(mem_kb, 0.99), "KB", n);
  report->Add("obs.trace_overhead_frac",
              Ratio(MeanLatency(p), MeanLatency(untraced)) - 1.0, "ratio");
}

/// Cross-run half of the determinism self-check: the per-read simulated
/// costs of one seed must hash the same in every run of the same binary.
/// The first run records the digest under `args.out`; later runs compare.
bool SameDigestAsBefore(const Args& args, const std::string& workload,
                        uint64_t digest) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const uintmax_t exe_size = fs::file_size(args.exe, ec);
  if (ec) return true;
  const fs::file_time_type exe_time = fs::last_write_time(args.exe, ec);
  if (ec) return true;
  const uint64_t exe_id =
      static_cast<uint64_t>(exe_size) * 1000003u +
      static_cast<uint64_t>(exe_time.time_since_epoch().count());
  const fs::path dir = fs::path(args.out) / "digests";
  fs::create_directories(dir, ec);
  char name[128];
  std::snprintf(name, sizeof name, "%s_seed%" PRIu64 "_%016" PRIx64 ".txt",
                workload.c_str(), args.seed, exe_id);
  const fs::path file = dir / name;
  if (FILE* f = std::fopen(file.c_str(), "r")) {
    uint64_t before = 0;
    const bool read = std::fscanf(f, "%" SCNx64, &before) == 1;
    std::fclose(f);
    if (read && before != digest) {
      std::printf("# sim-cost digest differs from an earlier run of this "
                  "seed: %016" PRIx64 "\n", before);
      return false;
    }
    return true;
  }
  if (FILE* f = std::fopen(file.c_str(), "w")) {
    std::fprintf(f, "%016" PRIx64 "\n", digest);
    std::fclose(f);
  }
  return true;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const Report& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics.Json().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload scan_mix|lookup_wire|"
                 "read_write --seed N --seconds S --trace 0|1 [--out DIR]\n");
    return 2;
  }
  std::unique_ptr<Workload> w = Make(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  std::vector<double> setups;
  auto timed_setup = [&](Workload* target) {
    const double cpu0 = ProcessCpuSeconds();
    target->Setup(args.seed);
    setups.push_back(ProcessCpuSeconds() - cpu0);
  };
  for (int i = 0; i < kSetupsBefore; ++i) timed_setup(w.get());
  std::printf("# workload %s seed %" PRIu64 ": %zu reads in the list, "
              "table %zu pages, buffer pool %zu pages\n",
              w->name(), args.seed, w->reads().size(),
              w->db().heap().num_pages(),
              w->engine()->options().buffer_pool_pages);

  // The untraced phase: the whole run, or its first third when traced.
  Report e2e, other, layers;
  const double cpu0 = ProcessCpuSeconds();
  const PhaseResult main_phase =
      w->RunPhase(args.trace ? args.seconds / 3 : args.seconds, nullptr);
  const double phase_cpu_s = ProcessCpuSeconds() - cpu0;
  uint64_t attempted = main_phase.attempted;
  uint64_t failed = main_phase.failed;
  {
    std::unique_ptr<Workload> spare = Make(args.workload);
    for (int i = kSetupsBefore; i < kSetups; ++i) timed_setup(spare.get());
  }
  EndToEnd(w.get(), main_phase, Median(setups), phase_cpu_s, &e2e);
  std::string spans_file;
  if (args.trace) {
    SpanLog spans;
    smoothscan::obs::MetricsRegistry registry;
    const Tracing tracing{&spans, &registry};
    const PhaseResult traced = w->RunPhase(args.seconds / 3, &tracing);
    TracedLayers(traced, main_phase, registry.Snapshot(), &layers);
    const ReplayCounts replay =
        ReplayLayers(w.get(), args.seed, args.seconds / 3, &layers);
    const ReplayCounts probe = OrderDefectProbe(w.get(), &layers);
    attempted += traced.attempted + replay.attempted + probe.attempted;
    failed += traced.failed + replay.failed + probe.failed;

    std::filesystem::create_directories(args.out);
    const std::string base = args.out + "/" + w->name() + "_seed" +
                             std::to_string(args.seed);
    spans_file = base + "_spans.json";
    spans.WriteChromeJson(spans_file);
    if (FILE* f = std::fopen((base + "_registry.txt").c_str(), "w")) {
      for (const auto& v : registry.Snapshot().values) {
        std::fprintf(f, "%s %.17g\n", v.name.c_str(), v.value);
      }
      std::fclose(f);
    }
  }
  OtherEndToEnd(w.get(), main_phase, &other);
  e2e.Print(args.trace ? "end-to-end (untraced third of the run)"
                       : "end-to-end");
  other.Print("other end-to-end (reported with the per-layer set)");
  if (args.trace) {
    layers.Print("per-layer (traced run and layer replay)");
    std::printf("# spans written to %s\n", spans_file.c_str());
  }

  for (const auto& [cause, n] : main_phase.failures) {
    std::printf("# failed reads: %-24s %" PRIu64 "\n", cause.c_str(), n);
  }
  bool correct = attempted > 0;
  if (w->deterministic()) {
    const SimCostLedger& ledger = *w->ledger();
    std::printf("# sim-cost digest %016" PRIx64 " over %zu reads, "
                "%" PRIu64 " mismatching re-runs\n",
                ledger.Digest(), w->reads().size(), ledger.mismatches());
    correct = correct && ledger.complete() && ledger.mismatches() == 0 &&
              SameDigestAsBefore(args, w->name(), ledger.Digest());
  }
  if (args.trace) {
    other.Append(layers);
    PrintResult(correct, attempted, failed, other);
  } else {
    PrintResult(correct, attempted, failed, e2e);
  }
  return 0;
}
