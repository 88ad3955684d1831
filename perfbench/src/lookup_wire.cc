// lookup_wire: an open loop of selective reads over the wire. One process
// drives 4 WireClient connections on in-process pipes into a net::Server;
// each connection sends on a fixed schedule (kRatePerSecond in total, about
// an eighth of the ~8000 req/s the same 4 connections reach as a closed loop
// on a 4-vCPU host), and every request is timed from the moment it was due,
// so a stall that delays later sends shows in their latency and in the
// generator's send lag. The server keeps one finished thread per query until
// its connection closes and fails to start more past ~30 000, so the rate
// also bounds how long a run can last: 1000 req/s over 20 s is 20 000.
//
// Reads select 0.001% to 0.1% of a table that fits in the buffer pool
// (1 to about 200 rows). The query text is parsed and bound per request;
// 70% plan with POLICY=auto over honest statistics, 15% are fixed Smooth
// Scans and 15% fixed Index Scans, and a quarter ask for ORDER BY KEY.

#include <sys/prctl.h>

#include <thread>

#include "common/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace smoothscan;

constexpr uint64_t kTuples = 200000;
constexpr size_t kPoolPages = 4096;
constexpr uint32_t kConnections = 4;
constexpr double kRatePerSecond = 1000.0;
constexpr size_t kReads = 1024;

class LookupWire : public Workload {
 public:
  const char* name() const override { return "lookup_wire"; }

  void Setup(uint64_t seed) override {
    BuildTable(seed, kTuples, kPoolPages);
    SMOOTHSCAN_CHECK(db_->heap().num_pages() <= kPoolPages);
    Rng rng(seed ^ 0x100c0b1eULL);
    reads_.clear();
    for (size_t i = 0; i < kReads; ++i) {
      ReadSpec r;
      const double sel =
          StratifiedLogUniform(1e-5, 1e-3, i, kReads, rng.UniformDouble());
      RangeFor(sel, db_->value_max(), rng.UniformDouble(), &r.lo, &r.hi);
      // Exact shares per block of 20: 14 auto, 3 smooth, 3 index; 5 ordered.
      const size_t slot = i % 20;
      r.chooser = slot < 14;
      r.kind = slot < 17 ? PathKind::kSmoothScan : PathKind::kIndexScan;
      r.stats = 1;
      r.ordered = (i % 4) == 3;
      r.sharing = false;
      reads_.push_back(r);
    }
    for (size_t i = reads_.size(); i > 1; --i) {
      std::swap(reads_[i - 1], reads_[static_cast<size_t>(rng.UniformInt(
                                   0, static_cast<int64_t>(i) - 1))]);
    }
    FinishReadList();
  }

  QueryEngineOptions EngineConfig() override {
    QueryEngineOptions o;
    o.max_admitted = kConnections;
    o.query_quota_bytes = 1ULL << 30;  // Tracks mem_peak_bytes; never binds.
    return o;
  }

  PhaseResult RunPhase(double seconds, const Tracing* tracing) override {
    QueryEngineOptions o = EngineConfig();
    if (tracing != nullptr) o.metrics = tracing->registry;
    QueryEngine qe(engine_.get(), o);
    net::ServerOptions so;
    so.session.max_outstanding = 1;
    net::Server server(&qe, &catalog_, so);

    SimCostLedger* ledger = ledger_.get();
    SpanLog* spans = tracing != nullptr ? tracing->spans : nullptr;
    std::atomic<uint64_t> ticket{0};
    std::vector<LoopTally> tallies(kConnections);
    const PhaseClock clock = PhaseClock::Begin(seconds);
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kConnections / kRatePerSecond));
    std::vector<std::thread> senders;
    for (uint32_t c = 0; c < kConnections; ++c) {
      senders.emplace_back([&, c] {
        // Wake at the due time, not up to the default 50 us timer slack
        // later: the lag would be charged to every request.
        prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        net::WireClient client(server.ConnectPipe());
        client.Hello("batch", 1);
        LoopTally& out = tallies[c];
        // Connections are staggered by a quarter period.
        Clock::time_point due = clock.start + period * c / kConnections;
        for (;; due += period) {
          // Past the deadline by schedule or, when the server cannot keep
          // up and sends fall behind schedule, by the clock.
          if ((due >= clock.deadline || Clock::now() >= clock.deadline) &&
              ledger->complete()) {
            break;
          }
          std::this_thread::sleep_until(due);
          const Clock::time_point sent = Clock::now();
          const uint32_t index =
              static_cast<uint32_t>(ticket.fetch_add(1) % reads_.size());
          ReadSample s = WireRead(&client, this, index, spans, c);
          s.done = Clock::now();
          s.latency_ms = MsBetween(due, s.done);
          ledger->Record(index, s.metrics.sim_time);
          out.Count(s);
          if (due >= clock.warm_end) {
            out.send_lag_ms.push_back(MsBetween(due, sent));
            out.reads.push_back(std::move(s));
          }
        }
        client.Close();
      });
    }
    for (std::thread& t : senders) t.join();
    PhaseResult out;
    MergeTallies(clock, nullptr, &tallies, &out);
    out.server = server.stats();
    server.Stop();
    return out;
  }
};

}  // namespace

std::unique_ptr<Workload> MakeLookupWire() {
  return std::make_unique<LookupWire>();
}

}  // namespace perfbench
