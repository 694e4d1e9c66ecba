// Event-driven TCP prefix-query server (docs/SERVING.md,
// docs/ROBUSTNESS.md).
//
// Two protocols share one port, distinguished by the first byte of each
// request:
//
//  - text: newline-delimited verbs, one single-line JSON response each
//    (EXACT / LPM / MLPM / STATS / HEALTH / METRICS / RELOAD / SHUTDOWN —
//    byte-identical to the pre-epoll server, pinned by a differential
//    test — plus an `AT <epoch-ts>` qualifier on EXACT/LPM and a HISTORY
//    verb answered from the server's epoch source, docs/TIMETRAVEL.md);
//  - binary: length-prefixed frames (serve/wire.h) whose magic byte 0xB5
//    can never open a text verb. One frame carries a batch of raw u32
//    addresses answered straight off QueryEngine::lookup_batch into the
//    connection's output buffer — hundreds of lookups per syscall
//    round-trip with zero steady-state allocation.
//
// Concurrency model: an accept thread plus `--shards N` event-loop threads
// (default: hardware concurrency). Each shard owns an epoll fd, an eventfd
// for cross-thread wakeup (handover / drain / stop), and the full state of
// the connections the accept thread round-robins to it — non-blocking fds,
// per-connection read/write state machines, and two intrusive timer lists
// (idle and write deadlines; timeouts are per-server constants, so arming
// appends to the tail and the head is always the earliest deadline — O(1)
// arm/cancel/expire, no poll slices). Connections never migrate between
// shards, so all per-connection state is owned by exactly one thread and
// needs no locks.
//
// Fault tolerance (all PR-4 semantics survive the rewrite):
//  - the serving state lives in one immutable ServingView (epoch source,
//    its epoch list, latest snapshot + engine) behind an RCU-style
//    shared_ptr; every request reads exactly one view, RELOAD validates
//    the new state off the hot path and swaps the view atomically —
//    in-flight queries finish on the old engine and a failed load keeps
//    the old generation serving;
//  - per-connection idle/write deadlines disconnect slow-loris peers;
//  - a max-concurrent-connections cap sheds load with a one-line
//    {"error":"overloaded"} response instead of queueing unboundedly;
//  - transient accept() errors (EMFILE/ENFILE/ECONNABORTED/EAGAIN) log,
//    back off, and continue rather than killing the accept thread, and an
//    injected epoll_wait failure (serve.epoll_wait) is survived the same
//    way;
//  - stop() drains gracefully: buffered responses flush, idle connections
//    close, and a condition variable fires the moment the live-connection
//    count reaches zero (shutdown latency is bounded by the actual drain,
//    not a sleep quantum); stragglers are forced closed at the drain
//    deadline.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/engine_state.h"
#include "serve/epoch_source.h"
#include "util/expected.h"

namespace sublet::serve {

/// Point-in-time view of the per-request counters.
struct StatsSnapshot {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t malformed = 0;
  std::uint64_t shed = 0;      ///< conn_closed_total{reason="shed"}
  std::uint64_t timeouts = 0;  ///< {reason="idle_timeout"} + {"write_timeout"}
  std::uint64_t accept_retries = 0;  ///< transient accept() errors survived
  std::uint64_t reloads = 0;         ///< successful hot swaps
  std::uint64_t reload_failures = 0; ///< rejected RELOADs (old state kept)
  std::uint64_t generation = 0;      ///< current engine generation
  double p50_us = 0.0;
  double p99_us = 0.0;

  std::string to_json() const;
};

/// Everything a request reads, published together so no answer mixes two
/// RELOADs: the epoch source, its epoch list, and its latest state.
struct ServingView {
  std::shared_ptr<EpochSource> source;
  std::vector<std::uint32_t> epochs;  ///< ascending; {0} for one snapshot
  std::shared_ptr<const EngineState> latest;
};

class QueryServer {
 public:
  struct Options {
    std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port()
    /// Event-loop shards (one epoll thread each); 0 = all cores.
    unsigned shards = 0;
    /// Max concurrently accepted connections; one over the cap is answered
    /// {"error":"overloaded"} and closed. 0 = unlimited (legacy).
    unsigned max_conns = 256;
    /// Close a connection after this long with no complete request.
    /// 0 = no idle deadline.
    int idle_timeout_ms = 60000;
    /// Deadline for draining a pending response to a peer that stopped
    /// reading. 0 = no write deadline.
    int io_timeout_ms = 10000;
    /// How long stop() waits for in-flight connections to finish before
    /// forcing them closed.
    int drain_timeout_ms = 2000;
    /// Per-connection cap on pending (unflushed) output bytes. A peer
    /// that pipelines requests but stops reading the responses — the
    /// slow-reader attack the soak harness replays — would otherwise grow
    /// the output buffer without bound; over the cap the connection is
    /// closed and counted in
    /// sublet_serve_conn_closed_total{reason="outbuf_overflow"}.
    /// 0 = unlimited.
    std::size_t max_outbuf_bytes = 8u << 20;
    /// Most recent epochs a single HISTORY request will replay; older
    /// epochs are summarized in the response's "truncated_epochs" count so
    /// one request can never walk an unbounded catalog. 0 = no cap.
    std::size_t max_history_epochs = 64;
    /// Flight recorder (docs/OBSERVABILITY.md): per-shard ring of recent
    /// request records with a read→parse→engine→write stage breakdown,
    /// dumped by the INSPECT verb. 0 disables recording entirely.
    std::size_t flight_ring = 256;
    /// Worst requests kept per shard with full detail (the slow log).
    std::size_t slow_log = 16;
    /// A request slower than this end-to-end enters the slow log.
    std::uint64_t slow_threshold_us = 1000;
  };

  /// Serve one snapshot: `engine` becomes the single epoch of a
  /// SnapshotFile source, so bare RELOAD re-reads engine->path().
  QueryServer(std::shared_ptr<const EngineState> engine, Options options);
  explicit QueryServer(std::shared_ptr<const EngineState> engine)
      : QueryServer(std::move(engine), Options{}) {}
  /// Serve `source` (e.g. a catalog, docs/TIMETRAVEL.md): `initial` is its
  /// already-materialized latest epoch; AT / HISTORY / binary-frame epochs
  /// resolve through it and bare RELOAD publishes source->refresh().
  QueryServer(std::shared_ptr<EpochSource> source,
              std::shared_ptr<const EngineState> initial, Options options);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Bind 127.0.0.1, listen, and spawn the accept loop + shard threads.
  /// Returns the bound port (useful with port 0) or an Error if the socket
  /// or epoll setup fails.
  Expected<std::uint16_t> start();

  std::uint16_t port() const { return port_; }
  StatsSnapshot stats() const;

  /// Event-loop shards actually running (resolved from Options).
  unsigned shard_count() const { return shard_count_; }

  /// RELOAD <path>: load + fully validate the snapshot at `path` off the
  /// hot path, then atomically publish it as a one-epoch source. Returns
  /// the published view, or an Error — in which case the previous view
  /// keeps serving untouched. Concurrent RELOADs run one at a time.
  Expected<std::shared_ptr<const ServingView>> reload(
      const std::string& path);

  /// One-line JSON for the HEALTH verb (also usable without a socket).
  std::string health_json() const;

  /// True once a SHUTDOWN request was served (or stop() began).
  bool stop_requested() const {
    return stop_.load(std::memory_order_acquire);
  }

  /// Block until SHUTDOWN arrives or `predicate()` returns true. The
  /// predicate is polled every ~100ms so signal handlers can set a flag
  /// without needing async-signal-safe condition variables.
  void wait(const std::function<bool()>& predicate = {});

  /// Stop accepting, drain in-flight connections for up to
  /// drain_timeout_ms, then force the rest closed and join all threads.
  /// Idempotent; also run by the destructor.
  void stop();

  /// Handle one request line (no trailing newline) and return the JSON
  /// response body. Public so tests can exercise the protocol without a
  /// socket; counters are updated exactly as for a network request.
  std::string handle_request(std::string_view line);

  /// One-line JSON for the INSPECT verb (docs/OBSERVABILITY.md): per
  /// shard, the live connection table (fd age, buffered bytes, parked
  /// flag, deadline arm state), timer-list depths, the flight-recorder
  /// ring tail, the slow-request log, and latency exemplars. Shard
  /// views are captured by the owning event-loop threads (requested via
  /// their eventfds); a shard that does not respond within the bounded
  /// wait is reported with "stale": true. Also usable without a socket
  /// (the shard array is simply empty before start()).
  std::string inspect_json();

  /// Toggle per-request flight recording on every shard (the overhead
  /// bench's knob; recording defaults to Options::flight_ring > 0).
  void set_flight_recording(bool on);
  bool flight_recording() const;

  /// Prometheus text exposition for the METRICS verb: the process-global
  /// registry (pipeline, snapshot, trie families) followed by this server's
  /// own registry, terminated by a "# EOF" line so clients reading the
  /// newline-delimited wire protocol know where the multi-line body ends.
  /// Also usable without a socket.
  std::string metrics_text() const;

  /// This server's private registry (sublet_serve_* families). Each
  /// QueryServer owns its own so multiple servers in one process keep
  /// independent counters; exported by metrics_text() after the global
  /// registry.
  const obs::MetricsRegistry& registry() const { return registry_; }

  /// Currently open connections across all shards (accepted, not yet
  /// closed). Exposed for the HEALTH verb and the soak tests.
  std::size_t active_connections() const {
    return live_conns_.load(std::memory_order_relaxed);
  }

  /// Bytes of per-connection state held across all shards: the Conn
  /// objects themselves plus the capacity of every input/output buffer.
  /// The 10k-idle-connection soak divides this by active_connections() to
  /// enforce a per-connection memory budget.
  std::size_t connection_memory_bytes() const;

 private:
  // Per-connection state machine and the event-loop shard that owns it.
  // Both are defined in server.cc; Shard's methods implement the epoll
  // loop and have full access to the server's counters (nested types see
  // the enclosing class's private members).
  struct Conn;
  struct Shard;

  void accept_loop();
  void wake_all_shards();
  /// Blocking best-effort send with the write deadline applied; used for
  /// the pre-dispatch shed response only (the fd never reaches a shard).
  bool send_with_deadline(int fd, std::string_view data);

  enum class Verb { kExact, kLpm, kMlpm, kBin, kAt, kHistory, kOther };
  obs::Histogram& verb_histogram(Verb verb);

  /// Why an accepted connection ended — one label value each in the
  /// sublet_serve_conn_closed_total counter family.
  enum class CloseReason {
    kIdleTimeout,
    kWriteTimeout,
    kOutbufOverflow,
    kShed,
    kDrain,
    kPeer,
    kError,
  };
  obs::Counter& closed_counter(CloseReason reason);

  /// Per-request stage info handed back by handle_request() to the shard
  /// that is building a flight record for the request.
  struct RequestFlight {
    /// Stamps reused from handle_request's own histogram timing, so
    /// recording adds no extra clock reads for dispatch/engine-done.
    std::chrono::steady_clock::time_point start{};
    std::chrono::steady_clock::time_point parse_done{};
    std::chrono::steady_clock::time_point done{};
    std::uint32_t epoch = 0;  ///< catalog epoch answered (AT queries)
    std::uint8_t verb = 0;    ///< Verb, as stored in FlightRecords
    bool error = false;       ///< response was an {"error": ...} line
  };
  std::string handle_request(std::string_view line, RequestFlight* flight);

  /// The current view: one shared_ptr acquire under engine_mu_. Each
  /// request reads one, so a concurrent RELOAD never invalidates it.
  std::shared_ptr<const ServingView> view() const;
  /// Refresh `source` and publish it with its new latest state as the
  /// current view. Caller holds reload_mu_. Failure counts a rejected
  /// RELOAD and leaves the current view serving.
  Expected<std::shared_ptr<const ServingView>> publish(
      std::shared_ptr<EpochSource> source);
  StatsSnapshot stats(const ServingView& view) const;
  std::string history_json(const ServingView& view, const Prefix& query);

  Options options_;
  unsigned shard_count_ = 1;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::chrono::steady_clock::time_point start_time_;

  mutable std::mutex engine_mu_;
  std::shared_ptr<const ServingView> view_;  ///< guarded by engine_mu_
  std::mutex reload_mu_;  ///< serializes RELOADs (not the swap itself)

  std::atomic<bool> stop_{false};   ///< SHUTDOWN seen / stop() began
  std::atomic<bool> drain_{false};  ///< shards: flush + close, no new reads
  std::atomic<bool> force_{false};  ///< shards: close everything now
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  std::atomic<bool> stopped_{false};  ///< stop() already ran to completion

  std::atomic<std::size_t> live_conns_{0};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;  ///< signalled when live_conns_ hits 0

  // Per-server metrics live in an owned registry (declared before the
  // references into it). The references are the request hot path: one
  // relaxed fetch_add each, exactly what the old private atomics cost.
  obs::MetricsRegistry registry_;
  obs::Counter& requests_;
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& malformed_;
  obs::Counter& accept_retries_;
  obs::Counter& epoll_retries_;
  obs::Counter& reloads_;
  obs::Counter& reload_failures_;
  obs::Counter& fair_yields_;
  obs::Counter& bin_frames_;
  obs::Counter& bin_lookups_;
  obs::Counter& bytes_read_;
  obs::Counter& bytes_written_;
  obs::Gauge& generation_gauge_;
  obs::Gauge& active_conns_gauge_;
  // Latency split per verb (satellite: per-verb histograms). STATS merges
  // all the series bucket-by-bucket, so its p50/p99 doubles are
  // bit-identical to the old single-histogram math.
  obs::Histogram& latency_exact_;
  obs::Histogram& latency_lpm_;
  obs::Histogram& latency_mlpm_;
  obs::Histogram& latency_bin_;
  obs::Histogram& latency_at_;
  obs::Histogram& latency_history_;
  obs::Histogram& latency_other_;
  // Labeled close-accounting family (CloseReason order; see
  // closed_counter()).
  obs::Counter& closed_idle_;
  obs::Counter& closed_write_;
  obs::Counter& closed_overflow_;
  obs::Counter& closed_shed_;
  obs::Counter& closed_drain_;
  obs::Counter& closed_peer_;
  obs::Counter& closed_error_;

  std::atomic<bool> flight_enabled_{false};
};

}  // namespace sublet::serve
