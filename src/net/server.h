// The network front-end: a Server accepting Transport connections (TCP or
// in-process pipes), speaking the frame protocol (net/frame.h), parsing
// query text (plan/query_text.h) and running each connection as a Session
// over the QueryEngine — the same client API in-process callers use
// (engine/session.h), so the wire adds transport and nothing else to the
// semantics.
//
// Connection shape: one reader thread per connection decodes frames and
// handles control (HELLO, CANCEL, METRICS) inline; each QUERY is submitted
// through the connection's Session (blocking on its outstanding-query
// window — the client-visible backpressure) and queued for the connection's
// drainer threads, started on demand up to its peak queries in flight. A
// drainer streams a query (BATCH frames as the executor produces batches,
// one DONE frame with the full result), then parks on the connection latch
// for the next; teardown joins them. A per-connection write latch
// serializes whole frames, each encoded in its writer's reused buffer.
//
// Backpressure: before admitting a batch-lane query the server consults the
// engine's queue depth and the memory broker's pressure flag; overloaded, it
// shrinks the connection's session window to `backpressure_window`, so batch
// clients stall in their own submit path while the SLA lane (whose window is
// never shrunk, and which the engine's reserved SLA executors serve) holds
// its latency floor — bench_server_overload pins exactly this.
//
// Cancellation: a CANCEL frame (or the connection dropping — teardown
// cancels every active query) reaches QueryEngine::Cancel through the
// handle: in-queue queries never run; mid-execution shared-scan consumers
// Detach mid-lap without perturbing their peers' accounting.

#ifndef SMOOTHSCAN_NET_SERVER_H_
#define SMOOTHSCAN_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/latch_rank.h"
#include "common/thread_annotations.h"
#include "engine/session.h"
#include "net/frame.h"
#include "net/transport.h"
#include "plan/query_text.h"

namespace smoothscan {
namespace net {

struct ServerOptions {
  /// Per-connection session defaults (lane, outstanding window, stream
  /// window). HELLO may override lane and window per connection.
  SessionOptions session;
  /// Overload threshold: the engine's admission queue is "deep" beyond
  /// `backpressure_queue_factor * max_admitted` queued queries.
  uint32_t backpressure_queue_factor = 2;
  /// Window a batch-lane connection is shrunk to while overloaded (>= 1).
  uint32_t backpressure_window = 1;
  /// Pressure flag source; null falls back to the engine's broker (if any).
  MemoryBroker* broker = nullptr;
};

/// Monotonic server counters (snapshot; individually relaxed).
struct ServerStats {
  uint64_t connections_opened = 0;
  uint64_t connections_active = 0;
  uint64_t queries_ok = 0;
  uint64_t queries_error = 0;     ///< Parse/bind rejections + failed queries.
  uint64_t queries_cancelled = 0;
  uint64_t frames_malformed = 0;  ///< Framing errors (connection closed).
  uint64_t backpressure_shrinks = 0;  ///< Times a window was shrunk.
  uint64_t window_stalls = 0;  ///< Session submits that blocked on a window.
  /// Drainer threads ever started: reused across queries, they follow the
  /// connections' peak queries in flight, not the queries served.
  uint64_t drainers_started = 0;
  uint64_t drainers_live = 0;  ///< Drainer threads started, not yet joined.
};

class Server {
 public:
  /// `catalog` resolves table names in query text; borrowed, must outlive
  /// the server (as must the engine).
  Server(QueryEngine* engine, const QueryCatalog* catalog,
         ServerOptions options = {});
  ~Server();  ///< Stop() + join everything.

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Adopts a connected transport endpoint and serves it (spawns the
  /// connection's reader thread).
  void Serve(std::unique_ptr<Transport> transport);

  /// In-process client: creates a pipe pair, serves one end, returns the
  /// other (the shape every test and bench uses — no ports).
  std::unique_ptr<Transport> ConnectPipe();

  /// TCP front: binds 127.0.0.1:`port` (0 = ephemeral) and accepts in a
  /// background thread. False on bind failure.
  bool ListenTcp(uint16_t port);
  /// Bound port (valid after ListenTcp succeeded).
  uint16_t tcp_port() const;

  /// Shuts every connection down and joins all threads. Idempotent; the
  /// destructor calls it.
  void Stop();

  ServerStats stats() const;

 private:
  /// A submitted query waiting for a drainer.
  using QueuedQuery = std::pair<uint64_t, std::shared_ptr<QueryHandle>>;

  /// One connection: transport + session + active-query registry.
  struct Conn {
    explicit Conn(QueryEngine* engine, std::unique_ptr<Transport> t,
                  const SessionOptions& session_options)
        : transport(std::move(t)), session(engine, session_options) {}

    std::unique_ptr<Transport> transport;
    Session session;
    /// The connection's default lane (HELLO may change it).
    QueryLane lane = QueryLane::kBatch;
    /// The window HELLO configured (restored when backpressure lifts).
    uint32_t configured_window = 0;

    /// Serializes whole frames onto the transport (drainers interleave).
    latch::Latch write_mu{latch::LatchRank::kNetWrite,
                          "net::Conn::write_mu"};
    /// Tag → live handle, the queries waiting for a drainer and the parked
    /// drainers. Drainers wait on `work` under it between queries and never
    /// hold it while they drain.
    latch::Latch mu{latch::LatchRank::kNetConn, "net::Conn::mu"};
    std::condition_variable_any work;
    std::unordered_map<uint64_t, std::shared_ptr<QueryHandle>> active
        GUARDED_BY(mu);
    std::deque<QueuedQuery> queued GUARDED_BY(mu);
    uint32_t parked GUARDED_BY(mu) = 0;  ///< Drainers waiting on `work`.
    bool closing GUARDED_BY(mu) = false;  ///< Drainers exit once idle.
    /// Reader thread only: its frame buffer and the drainers it started.
    FrameBuilder reader_out;
    std::vector<std::thread> drainers;
    std::thread reader;
    std::atomic<bool> done{false};  ///< Reader finished; conn reapable.
  };

  void ReaderLoop(Conn* conn);
  void HandleFrame(Conn* conn, const Frame& frame);
  void HandleQuery(Conn* conn, uint64_t tag, std::string_view text);
  /// A drainer thread: streams queued queries to the client, parking in
  /// between, until the connection closes.
  void DrainerLoop(Conn* conn);
  /// Sends the frame `out` holds (FrameBuilder::Start + payload).
  void Send(Conn* conn, FrameBuilder* out);
  /// Sends a tagged ERROR frame from the reader thread.
  void SendError(Conn* conn, uint64_t tag, std::string_view message);
  /// Counts a query rejected before submission and answers its ERROR.
  void RejectQuery(Conn* conn, uint64_t tag, std::string_view message);
  /// Applies the overload policy to a batch-lane submit (see file comment).
  void ApplyBackpressure(Conn* conn, QueryLane lane);
  /// Cancels every active query, joins the drainers, accumulates the
  /// session's stall count. Runs on the reader thread as it exits.
  void TeardownConn(Conn* conn);
  void AcceptLoop();

  QueryEngine* const engine_;
  const QueryCatalog* const catalog_;
  const ServerOptions options_;
  MemoryBroker* broker_;  ///< Resolved pressure source (may be null).

  mutable latch::Latch mu_{latch::LatchRank::kNetListener,
                           "net::Server::mu_"};
  std::list<std::unique_ptr<Conn>> conns_ GUARDED_BY(mu_);
  bool stopped_ GUARDED_BY(mu_) = false;
  std::unique_ptr<TcpListener> listener_;  ///< Set before the acceptor runs.
  std::thread acceptor_;

  // Counters (relaxed; exact enough for stats()).
  std::atomic<uint64_t> connections_opened_{0};
  std::atomic<uint64_t> queries_ok_{0};
  std::atomic<uint64_t> queries_error_{0};
  std::atomic<uint64_t> queries_cancelled_{0};
  std::atomic<uint64_t> frames_malformed_{0};
  std::atomic<uint64_t> backpressure_shrinks_{0};
  std::atomic<uint64_t> closed_window_stalls_{0};
  std::atomic<uint64_t> drainers_started_{0};
  std::atomic<uint64_t> drainers_live_{0};
};

}  // namespace net
}  // namespace smoothscan

#endif  // SMOOTHSCAN_NET_SERVER_H_
