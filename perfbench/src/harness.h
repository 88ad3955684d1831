// Shared machinery of the repo benchmark: clocks and percentiles, the metric
// report printed at the end of a run, the row-count oracle every read is
// checked against, the simulated-cost ledger behind the determinism
// self-check, and the span log of the traced run.
//
// Everything here lives on the benchmark's side of the engine's public
// surface: spans are taken around the calls the benchmark makes, never
// inside the engine.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "engine/query_engine.h"
#include "storage/heap_file.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Nearest-rank percentile (q in [0, 1]); 0 on empty input.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Peak resident set of this process, in MB.
double PeakRssMb();

/// CPU time all threads of this process have used, in seconds. Unlike wall
/// time it leaves out the time the host's hypervisor runs other guests on
/// this machine's vCPUs (steal).
double ProcessCpuSeconds();

/// One reported figure. `samples` is the count a percentile or mean rests on
/// (0 when the figure is a single measurement or a ratio of totals).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

/// Named metrics in insertion order; printed as a table and as the JSON
/// `metrics` object of the result line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0);
  void Append(const Report& other);
  /// Human-readable block on stdout: one "name value unit (n=...)" line each.
  void Print(const std::string& title) const;
  /// `{"name": {"value": v, "unit": "u"}, ...}` with full-precision values.
  std::string Json() const;
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Exact answer to "how many rows have lo <= c2 < hi", from the generated
/// column values (read once from the heap at set-up, free of charge).
class CountOracle {
 public:
  CountOracle() = default;
  CountOracle(const smoothscan::HeapFile& heap, int column);
  uint64_t Count(int64_t lo, int64_t hi) const;

 private:
  std::vector<int64_t> sorted_;
};

/// Streams one result through its checks: row count and, for ordered reads,
/// non-decreasing key order.
struct RowCheck {
  bool need_order = false;
  uint64_t rows = 0;
  bool ordered = true;
  bool have_last = false;
  int64_t last = 0;

  void Feed(int64_t key) {
    ++rows;
    if (need_order && have_last && key < last) ordered = false;
    last = key;
    have_last = true;
  }
};

/// First-seen simulated cost of every query of a seeded list. A later run of
/// the same query must charge the bit-identical cost; the benchmark fails
/// itself when one does not (Record returns false).
class SimCostLedger {
 public:
  explicit SimCostLedger(size_t n) : first_(n, 0.0), seen_(n, 0) {}
  bool Record(size_t index, double sim_time);
  bool complete() const { return seen_count_.load() == first_.size(); }
  /// Mean over the list (every query counted once); valid when complete.
  double Mean() const;
  /// FNV-1a over the bit patterns (printed, and compared across runs).
  uint64_t Digest() const;
  uint64_t mismatches() const { return mismatches_.load(); }

 private:
  mutable std::mutex mu_;
  std::vector<double> first_;
  std::vector<uint8_t> seen_;
  std::atomic<size_t> seen_count_{0};
  std::atomic<uint64_t> mismatches_{0};
};

/// One benchmark-side span: a call into Session, WireClient or
/// QueryBuilder::Write, with the engine's queue-wait/exec split attached.
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint32_t thread = 0;
  int64_t begin_us = 0;
  int64_t end_us = 0;
  double queue_wait_ms = 0.0;
  double exec_ms = 0.0;
  uint64_t rows = 0;
};

/// In-memory span store of the traced run, written out as Chrome
/// trace-event JSON when the run ends.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}
  int64_t NowUs() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - origin_)
        .count();
  }
  void Add(const Span& span);
  bool WriteChromeJson(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
