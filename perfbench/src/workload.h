// The three workloads of the repo benchmark and what they share: a seeded
// read list with exact expected row counts, one set-up routine per workload,
// timed phases against a freshly built QueryEngine, and the serial layer
// replay of the traced run (replay.cc).

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compress/compressed_extent_map.h"
#include "cost/cost_model.h"
#include "engine/query_engine.h"
#include "engine/session.h"
#include "exec/task_scheduler.h"
#include "harness.h"
#include "net/server.h"
#include "net/wire_client.h"
#include "obs/metrics.h"
#include "plan/query_text.h"
#include "plan/table_stats.h"
#include "workload/micro_bench.h"

namespace perfbench {

/// Statistics variants a chooser read may plan over: every estimate scaled
/// by x0.01, x1 (honest) or x100.
inline constexpr std::array<double, 3> kStatsScale = {0.01, 1.0, 100.0};
inline constexpr const char* kStatsTable[3] = {"t_x001", "t", "t_x100"};

/// One read of a workload's seeded list: "c2 in [lo, hi)" with its plan
/// policy and the oracle's row count.
struct ReadSpec {
  int64_t lo = 0;
  int64_t hi = 0;
  bool ordered = false;
  /// Cost-based chooser over statistics variant `stats`; otherwise the
  /// fixed path `kind`.
  bool chooser = false;
  smoothscan::PathKind kind = smoothscan::PathKind::kSmoothScan;
  int stats = 1;
  uint32_t dop = 0;
  bool sharing = true;
  uint64_t expected = 0;
};

/// Why a read failed verification.
enum class Failure { kNone, kStatus, kRowCount, kOrder };

struct ReadSample {
  uint32_t index = 0;  ///< Position in the read list.
  double latency_ms = 0.0;
  uint64_t rows = 0;   ///< Rows the client received.
  Failure failure = Failure::kNone;
  uint64_t ticket = 0;  ///< Closed loops: position in the run's sequence.
  Clock::time_point done;
  smoothscan::QueryMetrics metrics;
  bool ok() const { return failure == Failure::kNone; }
};

struct WriteSample {
  double latency_ms = 0.0;
  Clock::time_point done;
  uint32_t ops = 0;
  bool ok = false;
};

/// What the traced part of a run attaches: the benchmark's span log and the
/// engine's metrics registry.
struct Tracing {
  SpanLog* spans = nullptr;
  smoothscan::obs::MetricsRegistry* registry = nullptr;
};

/// Everything one timed phase produced.
struct PhaseResult {
  /// Length of the timed span (after the warm-up), and its start.
  double seconds = 0.0;
  Clock::time_point base;
  /// Reads per reporting window (whole passes for closed loops): rates and
  /// percentiles are taken per window and reported as medians over windows.
  uint64_t window = 1;
  /// Samples of the timed span.
  std::vector<ReadSample> reads;
  std::vector<WriteSample> writes;
  std::vector<double> send_lag_ms;
  /// Every operation of the phase, warm-up included, and the reads among
  /// them.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t reads_done = 0;
  /// Failed reads by "cause/path" (e.g. "order/FullScan").
  std::map<std::string, uint64_t> failures;
  /// Filled by the workloads that have them.
  smoothscan::net::ServerStats server;
  uint64_t sampled_chunk_claims = 0;
  uint64_t sampled_chunks = 0;
  smoothscan::TableWriterStats writer;
  /// Era publishes of the written table during the phase.
  uint64_t publishes = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;

  /// Builds the engine, the table, its index, statistics and (where the
  /// workload has one) the compressed extent, plus the seeded read list.
  /// Called several times per run; each call replaces the previous state.
  virtual void Setup(uint64_t seed) = 0;

  /// Runs the load for `seconds` (and at least until every read of the list
  /// ran once) against a QueryEngine built for this phase.
  virtual PhaseResult RunPhase(double seconds, const Tracing* tracing) = 0;

  /// Engine options of this workload (without observability).
  virtual smoothscan::QueryEngineOptions EngineConfig() = 0;

  /// Whether sim_cost_per_query must repeat bit for bit (fixed tables, no
  /// sharing, no writes).
  virtual bool deterministic() const { return true; }

  // --- State the replay and the shared read helpers use.
  smoothscan::Engine* engine() { return engine_.get(); }
  const smoothscan::MicroBenchDb& db() const { return *db_; }
  const std::vector<ReadSpec>& reads() const { return reads_; }
  const smoothscan::TableStats& stats(int variant) const {
    return stats_[variant];
  }
  const smoothscan::CostModel& model() const { return *model_; }
  const smoothscan::QueryCatalog& catalog() const { return catalog_; }
  smoothscan::CompressedExtentMap* compressed() { return compressed_.get(); }
  smoothscan::TaskScheduler* scheduler() { return scheduler_.get(); }
  SimCostLedger* ledger() { return ledger_.get(); }
  /// Query text of read `r` for the wire.
  std::string QueryText(const ReadSpec& r) const;

 protected:
  /// Builds engine + table + index + statistics + catalog + oracle.
  void BuildTable(uint64_t seed, uint64_t tuples, size_t pool_pages);
  /// Fills `expected` of every read from the oracle and resets the ledger.
  void FinishReadList();

  std::unique_ptr<smoothscan::Engine> engine_;
  std::unique_ptr<smoothscan::MicroBenchDb> db_;
  std::array<smoothscan::TableStats, 3> stats_;
  std::unique_ptr<smoothscan::CostModel> model_;
  smoothscan::QueryCatalog catalog_;
  CountOracle oracle_;
  std::vector<ReadSpec> reads_;
  std::unique_ptr<smoothscan::CompressedExtentMap> compressed_;
  std::unique_ptr<smoothscan::TaskScheduler> scheduler_;
  std::unique_ptr<SimCostLedger> ledger_;
};

std::unique_ptr<Workload> MakeScanMix();
std::unique_ptr<Workload> MakeLookupWire();
std::unique_ptr<Workload> MakeReadWrite();

/// Start, end of warm-up and deadline of one timed phase.
struct PhaseClock {
  Clock::time_point start;
  Clock::time_point warm_end;
  Clock::time_point deadline;
  static PhaseClock Begin(double seconds);
};

/// Tickets of closed-loop clients that run the read list in whole passes:
/// the first pass is the warm-up, the timed passes follow, and no new pass
/// starts once the deadline has passed. Whole passes keep the mix of a run
/// exactly the list's, however long a run is.
class PassTickets {
 public:
  PassTickets(uint64_t list_size, Clock::time_point deadline)
      : n_(list_size), deadline_(deadline) {}
  /// The next ticket (read index = ticket % list size); false once the run
  /// is over.
  bool Next(uint64_t* ticket);
  /// After each read: past the deadline, ends the run with the pass the
  /// latest ticket belongs to (at least one timed pass).
  void MaybeStop();
  /// Tickets [list_size, stop_at) are the timed ones.
  uint64_t stop_at() const { return stop_at_.load(); }
  uint64_t list_size() const { return n_; }
  /// When the first timed ticket was issued.
  Clock::time_point timed_start() const;

 private:
  const uint64_t n_;
  const Clock::time_point deadline_;
  std::atomic<uint64_t> next_{0};
  std::atomic<uint64_t> stop_at_{UINT64_MAX};
  std::atomic<int64_t> timed_start_ns_{0};
};

/// Smallest reporting window: a p99 taken over it rests on 10 samples.
inline constexpr uint64_t kMinWindowReads = 1000;

/// Per-thread tallies of a load loop, merged into the PhaseResult.
/// Every operation is verified and counted; which ones are timed is decided
/// at the merge.
struct LoopTally {
  std::vector<ReadSample> reads;
  std::vector<WriteSample> writes;
  std::vector<double> send_lag_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t reads_done = 0;
  std::map<std::string, uint64_t> failures;

  /// Counts a finished read as attempted, and as failed with its cause.
  void Count(const ReadSample& s);
};
/// Merges `tallies` into `out`. With `passes`, the timed reads are those of
/// the timed passes, in ticket order, the span starts at the first timed
/// ticket and a window is the fewest whole passes holding kMinWindowReads
/// reads; without, everything completing after `clock.warm_end` is timed,
/// in completion order, in windows of kMinWindowReads. Writes are timed
/// within the reads' span. out->seconds runs to the last timed completion.
void MergeTallies(const PhaseClock& clock, const PassTickets* passes,
                  std::vector<LoopTally>* tallies, PhaseResult* out);

/// A closed-loop client: runs reads of the list through `session`, one at a
/// time, until `passes` ends the run.
void ClosedLoopReads(smoothscan::Session* session, Workload* w,
                     PassTickets* passes, const Tracing* tracing,
                     uint32_t thread, LoopTally* out);

/// One read through an in-process Session: streams the result, checks row
/// count and order, records a span when `spans` is set.
ReadSample SessionRead(smoothscan::Session* session, Workload* w,
                       uint32_t index, SpanLog* spans, uint32_t thread);
/// The same for a read `r` that need not be in the list (`index` only
/// labels the sample).
ReadSample SessionRead(smoothscan::Session* session, const Workload& w,
                       const ReadSpec& r, uint32_t index, SpanLog* spans,
                       uint32_t thread);

/// One read over a WireClient (query text, parsed and bound server-side).
ReadSample WireRead(smoothscan::net::WireClient* client, Workload* w,
                    uint32_t index, SpanLog* spans, uint32_t thread);

/// Log-uniform selectivity in [lo, hi], stratified: draw `i` of `n` falls in
/// the i-th equal slice of the log range, jittered by `u` in [0, 1).
double StratifiedLogUniform(double lo, double hi, size_t i, size_t n,
                            double u);

/// Key range [lo, lo + width) of the given selectivity over c2's domain
/// [0, value_max], placed at offset fraction `u` in [0, 1).
void RangeFor(double selectivity, int64_t value_max, double u, int64_t* lo,
              int64_t* hi);

/// Reads the replay ran through a Session or the wire, and how many of them
/// failed verification.
struct ReplayCounts {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Layer replay of the traced run: one client serially replays a seeded
/// sample of the workload's reads as a raw access-path drain, through a
/// Session and over a WireClient, and reports the per-layer self times.
ReplayCounts ReplayLayers(Workload* w, uint64_t seed, double budget_seconds,
                          Report* report);

/// Probe of a known defect, outside the workload's mix: every ordered
/// fixed-policy read of the list runs once more through a Session with the
/// cost-based chooser (statistics variants x0.01, x1, x100 in turn), and
/// plan.ordered_unsorted_frac reports the share that came back out of key
/// order. Those reads are left out of the returned counts; every other probe
/// read counts as attempted, and as failed if it fails in any other way.
ReplayCounts OrderDefectProbe(Workload* w, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
