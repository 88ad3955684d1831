// scan_mix: a closed loop of 4 in-process Session clients (admission cap 4)
// over a micro-bench table 2.4x the size of the buffer pool.
//
// The read list crosses a stratified log-uniform selectivity (0.001% to
// 100%) with a fixed set of order and plan policy combinations (kCombos), so
// each seed runs the same shape of mix with different ranges:
//   * half the reads are unordered and use the cost-based chooser over
//     statistics scaled by x0.01, x1 or x100 (a third each), so its index,
//     sort and compressed plans all run;
//   * a third are Ordered() Smooth Scans;
//   * the rest are an unordered Smooth Scan and a full scan per stratum (the
//     chooser prefers the compressed tier to a full scan of unordered
//     reads, so full scans run as a fixed policy);
//   * a quarter of the unordered reads run at DOP 2 on a shared scheduler.
// No read of the mix is both ordered and planned by the chooser: at the
// commit that added this benchmark the chooser plans such reads as full
// scans above ~3% selectivity and the engine returns them out of key order
// (see README.md). The traced run measures that defect separately
// (OrderDefectProbe), so every read of the timed mix is expected to verify.
// The compressed tier is enabled on c2 and sharing is off, so every read's
// simulated cost is that of a solo cold run and repeats bit for bit.

#include <iterator>
#include <thread>

#include "common/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace smoothscan;

constexpr uint64_t kTuples = 60000;
constexpr size_t kPoolPages = 256;
constexpr uint32_t kClients = 4;
constexpr uint32_t kSchedulerWorkers = 2;
constexpr size_t kStrata = 64;

/// One order and plan policy combination of a stratum.
struct Combo {
  bool ordered;
  bool chooser;
  PathKind kind;  ///< Fixed path when not `chooser`.
  int stats;      ///< Statistics variant when `chooser`.
};
constexpr Combo kCombos[] = {
    {true, false, PathKind::kSmoothScan, 1},
    {true, false, PathKind::kSmoothScan, 1},
    {true, false, PathKind::kSmoothScan, 1},
    {true, false, PathKind::kSmoothScan, 1},
    {false, false, PathKind::kSmoothScan, 1},
    {false, false, PathKind::kFullScan, 1},
    {false, true, PathKind::kSmoothScan, 0},
    {false, true, PathKind::kSmoothScan, 1},
    {false, true, PathKind::kSmoothScan, 2},
    {false, true, PathKind::kSmoothScan, 0},
    {false, true, PathKind::kSmoothScan, 1},
    {false, true, PathKind::kSmoothScan, 2},
};
/// The ordered combinations come first.
constexpr int kOrdered = 4;
constexpr int kUnordered = static_cast<int>(std::size(kCombos)) - kOrdered;

class ScanMix : public Workload {
 public:
  const char* name() const override { return "scan_mix"; }

  void Setup(uint64_t seed) override {
    scheduler_.reset();
    BuildTable(seed, kTuples, kPoolPages);
    compressed_ = std::make_unique<CompressedExtentMap>(engine_.get());
    SMOOTHSCAN_CHECK(compressed_->Enable(&db_->heap(),
                                         MicroBenchDb::kIndexedColumn) !=
                     nullptr);
    scheduler_ = std::make_unique<TaskScheduler>(kSchedulerWorkers, seed);

    Rng rng(seed ^ 0x5ca9a11ULL);
    reads_.clear();
    for (size_t s = 0; s < kStrata; ++s) {
      // Two of the eight unordered combinations of this stratum run at DOP 2.
      const int par_a = static_cast<int>(rng.UniformInt(0, kUnordered - 1));
      const int par_b = (par_a + 1 + static_cast<int>(rng.UniformInt(
                                         0, kUnordered - 2))) %
                        kUnordered;
      for (int c = 0; c < static_cast<int>(std::size(kCombos)); ++c) {
        const Combo& combo = kCombos[c];
        ReadSpec r;
        const double sel =
            StratifiedLogUniform(1e-5, 1.0, s, kStrata, rng.UniformDouble());
        RangeFor(sel, db_->value_max(), rng.UniformDouble(), &r.lo, &r.hi);
        r.ordered = combo.ordered;
        r.chooser = combo.chooser;
        r.kind = combo.kind;
        r.stats = combo.stats;
        const int unordered = c - kOrdered;
        r.dop = (!r.ordered && (unordered == par_a || unordered == par_b))
                    ? 2
                    : 0;
        r.sharing = false;
        reads_.push_back(r);
      }
    }
    // Seeded execution order, so concurrent clients mix every shape.
    for (size_t i = reads_.size(); i > 1; --i) {
      std::swap(reads_[i - 1], reads_[static_cast<size_t>(rng.UniformInt(
                                   0, static_cast<int64_t>(i) - 1))]);
    }
    FinishReadList();
  }

  QueryEngineOptions EngineConfig() override {
    QueryEngineOptions o;
    o.max_admitted = kClients;
    o.scheduler = scheduler_.get();
    o.compressed = compressed_.get();
    o.query_quota_bytes = 1ULL << 30;  // Tracks mem_peak_bytes; never binds.
    return o;
  }

  PhaseResult RunPhase(double seconds, const Tracing* tracing) override {
    QueryEngineOptions o = EngineConfig();
    if (tracing != nullptr) o.metrics = tracing->registry;
    QueryEngine qe(engine_.get(), o);
    std::vector<LoopTally> tallies(kClients);
    const PhaseClock clock = PhaseClock::Begin(seconds);
    PassTickets passes(reads_.size(), clock.deadline);
    std::vector<std::thread> clients;
    for (uint32_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        SessionOptions so;
        so.max_outstanding = 1;
        Session session(&qe, so);
        ClosedLoopReads(&session, this, &passes, tracing, c, &tallies[c]);
      });
    }
    for (std::thread& t : clients) t.join();
    PhaseResult out;
    MergeTallies(clock, &passes, &tallies, &out);
    return out;
  }
};

}  // namespace

std::unique_ptr<Workload> MakeScanMix() { return std::make_unique<ScanMix>(); }

}  // namespace perfbench
