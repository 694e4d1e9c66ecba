#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/flight.h"
#include "serve/json.h"
#include "serve/snapshot_file.h"
#include "serve/wire.h"
#include "util/faultinject.h"
#include "util/log.h"
#include "util/strings.h"

namespace sublet::serve {

namespace {

using std::chrono::steady_clock;

/// One text request line must fit in this much buffered input; a client
/// that streams more without a newline is cut off (defensive bound, not a
/// protocol limit any legitimate request approaches). Binary frames carry
/// their own length and are bounded by wire::kMaxPayload.
constexpr std::size_t kMaxBufferedInput = 1 << 20;

/// The accept loop and wait() poll in slices of at most this long so
/// stop() stays responsive; the shard loops need no slices — their
/// epoll_wait timeout tracks the earliest timer deadline and an eventfd
/// wakes them for everything else.
constexpr int kPollSliceMs = 100;

/// recv() size per readiness event. Reads land in a shard-owned scratch
/// buffer and only the received bytes are appended to the connection, so
/// an idle connection's input buffer stays at zero capacity.
constexpr std::size_t kReadChunk = 64 * 1024;

/// Fairness budget: at most this many requests are answered for one
/// connection per event-loop pass. A peer that pipelines thousands of
/// requests in one burst (a 64KB read chunk holds ~11k "STATS\n" lines)
/// would otherwise pin the shard thread for the whole synchronous drain,
/// stalling every other connection on the shard past its io deadline; at
/// the budget the connection is parked on the shard's work list and the
/// loop resumes it next pass, interleaving everyone else's requests.
constexpr std::size_t kMaxRequestsPerPass = 128;

std::string error_json(std::string_view message) {
  JsonWriter json;
  json.begin_object();
  json.key("error").value(message);
  json.end_object();
  return json.take();
}

/// The state answering `epoch` under `view`: its latest for 0, otherwise
/// the source's as-of epoch, which `pin` keeps alive for the request.
Expected<const EngineState*> resolve(const ServingView& view,
                                     std::uint32_t epoch,
                                     std::shared_ptr<const EngineState>& pin) {
  if (epoch == 0) return view.latest.get();
  auto found = view.source->epoch_at(epoch);
  if (!found) return found.error();
  pin = std::move(*found);
  return pin.get();
}

/// Wait for `events` on `fd` for up to `timeout_ms`. Returns >0 ready,
/// 0 timeout, <0 error (EINTR already retried).
int wait_fd(int fd, short events, int timeout_ms) {
  pollfd pfd{fd, events, 0};
  for (;;) {
    int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0 && errno == EINTR) continue;
    return rc;
  }
}

bool set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) >= 0;
}

/// accept() errors the loop must survive: resource exhaustion and peers
/// that gave up while queued. Everything else (EBADF/EINVAL once stop()
/// shut the listener down) ends the loop.
bool transient_accept_error(int err) {
  return err == EMFILE || err == ENFILE || err == ECONNABORTED ||
         err == EAGAIN || err == EWOULDBLOCK || err == ENOBUFS ||
         err == ENOMEM || err == EPROTO;
}

/// The registry Histogram's quantile over an externally merged snapshot:
/// same target-rank rule, same bucket-midpoint estimate, so summing the
/// per-verb series reproduces the old single-histogram doubles exactly.
double snapshot_quantile(const obs::HistogramSnapshot& snap, double q) {
  if (snap.count == 0) return 0.0;
  auto target =
      static_cast<std::uint64_t>(q * static_cast<double>(snap.count));
  if (target >= snap.count) target = snap.count - 1;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < snap.buckets.size(); ++b) {
    seen += snap.buckets[b];
    if (seen > target) {
      if (b == 0) return 0.0;
      return 1.5 * static_cast<double>(std::uint64_t{1} << (b - 1));
    }
  }
  return 0.0;
}

std::uint64_t elapsed_ns(steady_clock::time_point from,
                         steady_clock::time_point to) {
  if (to <= from) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count());
}

const char* verb_name(std::uint8_t verb) {
  switch (verb) {
    case 0: return "exact";
    case 1: return "lpm";
    case 2: return "mlpm";
    case 3: return "bin";
    case 4: return "at";
    case 5: return "history";
    default: return "other";
  }
}

/// Emit one flight record as a JSON object (shared by the ring tail and
/// the slow log; the latter adds "detail").
void flight_record_json(JsonWriter& json, const obs::FlightRecord& rec,
                        const std::string* detail = nullptr) {
  json.begin_object();
  json.key("seq").value(rec.seq);
  json.key("verb").value(verb_name(rec.verb));
  json.key("status").value(rec.status == 0 ? "ok" : "error");
  if (rec.epoch != 0) {
    json.key("epoch").value(static_cast<std::uint64_t>(rec.epoch));
  }
  json.key("fd").value(static_cast<std::uint64_t>(
      rec.fd < 0 ? 0 : static_cast<std::uint32_t>(rec.fd)));
  char peer[32];
  std::snprintf(peer, sizeof(peer), "%u.%u.%u.%u:%u",
                (rec.peer_addr >> 24) & 0xFF, (rec.peer_addr >> 16) & 0xFF,
                (rec.peer_addr >> 8) & 0xFF, rec.peer_addr & 0xFF,
                rec.peer_port);
  json.key("peer").value(peer);
  json.key("bytes_in").value(rec.bytes_in);
  json.key("bytes_out").value(rec.bytes_out);
  json.key("start_ms").value(static_cast<double>(rec.start_ns) / 1e6);
  json.key("read_us").value(static_cast<double>(rec.read_ns) / 1e3);
  json.key("parse_us").value(static_cast<double>(rec.parse_ns) / 1e3);
  json.key("engine_us").value(static_cast<double>(rec.engine_ns) / 1e3);
  json.key("write_us").value(static_cast<double>(rec.write_ns) / 1e3);
  json.key("total_us").value(static_cast<double>(rec.total_ns) / 1e3);
  if (detail != nullptr) json.key("detail").value(*detail);
  json.end_object();
}

}  // namespace

std::string StatsSnapshot::to_json() const {
  JsonWriter json;
  json.begin_object();
  json.key("requests").value(requests);
  json.key("hits").value(hits);
  json.key("misses").value(misses);
  json.key("malformed").value(malformed);
  json.key("shed").value(shed);
  json.key("timeouts").value(timeouts);
  json.key("accept_retries").value(accept_retries);
  json.key("reloads").value(reloads);
  json.key("reload_failures").value(reload_failures);
  json.key("generation").value(generation);
  json.key("p50_us").value(p50_us);
  json.key("p99_us").value(p99_us);
  json.end_object();
  return json.take();
}

// ---- per-connection state machine ----------------------------------------

struct QueryServer::Conn {
  /// Intrusive links for one timer list. Timeouts are per-server
  /// constants, so arming appends to the list tail and the head is always
  /// the earliest deadline — O(1) arm, cancel, and expiry.
  struct Link {
    Conn* prev = nullptr;
    Conn* next = nullptr;
    bool armed = false;
    steady_clock::time_point deadline{};
  };

  int fd = -1;
  /// Buffered input; [in_off, in.size()) is not yet consumed. Requests are
  /// parsed by advancing in_off, never by erasing the front (compact()
  /// reclaims the consumed prefix once it grows past a threshold).
  std::string in;
  std::size_t in_off = 0;
  /// Two-buffer output: out_front[out_off..] is draining to the socket,
  /// out_back accumulates new responses. The flush sends both with one
  /// vectored write and swaps them when the front empties — no front-erase
  /// memmove, and buffer capacity is reused at steady state.
  std::string out_front;
  std::size_t out_off = 0;
  std::string out_back;
  std::uint32_t armed_events = 0;  ///< epoll interest currently installed
  bool closing = false;  ///< flush remaining output, then close
  bool seen_binary = false;  ///< suppresses the text idle-timeout notice
  bool work_pending = false;  ///< parked on the shard's fairness work list
  std::size_t accounted = 0;  ///< footprint last added to the shard total
  /// Why `closing` was set — the conn_closed label finish_io() uses when
  /// the deferred flush-then-close completes.
  CloseReason close_reason = CloseReason::kPeer;
  std::uint32_t peer_addr = 0;   ///< IPv4, host order (INSPECT / recorder)
  std::uint16_t peer_port = 0;
  std::uint64_t requests = 0;    ///< requests answered on this connection
  steady_clock::time_point opened{};     ///< accept time (fd age)
  steady_clock::time_point last_recv{};  ///< last recv() that added bytes
  Link idle_link;
  Link write_link;

  std::size_t avail() const { return in.size() - in_off; }
  bool has_output() const {
    return out_off < out_front.size() || !out_back.empty();
  }
  std::size_t footprint() const {
    return sizeof(Conn) + in.capacity() + out_front.capacity() +
           out_back.capacity();
  }
  void compact() {
    if (in_off == in.size()) {
      in.clear();
      in_off = 0;
    } else if (in_off >= 4096) {
      in.erase(0, in_off);
      in_off = 0;
    }
  }
};

// ---- event-loop shard -----------------------------------------------------

struct QueryServer::Shard {
  class TimerList {
   public:
    explicit TimerList(Conn::Link Conn::* link) : link_(link) {}

    void arm(Conn* conn, steady_clock::time_point deadline) {
      cancel(conn);
      Conn::Link& link = conn->*link_;
      link.deadline = deadline;
      link.armed = true;
      link.prev = tail_;
      link.next = nullptr;
      if (tail_ != nullptr) {
        (tail_->*link_).next = conn;
      } else {
        head_ = conn;
      }
      tail_ = conn;
      ++size_;
    }

    void cancel(Conn* conn) {
      Conn::Link& link = conn->*link_;
      if (!link.armed) return;
      if (link.prev != nullptr) {
        (link.prev->*link_).next = link.next;
      } else {
        head_ = link.next;
      }
      if (link.next != nullptr) {
        (link.next->*link_).prev = link.prev;
      } else {
        tail_ = link.prev;
      }
      link.prev = link.next = nullptr;
      link.armed = false;
      --size_;
    }

    Conn* front() const { return head_; }
    std::size_t size() const { return size_; }

   private:
    Conn::Link Conn::* link_;
    Conn* head_ = nullptr;
    Conn* tail_ = nullptr;
    std::size_t size_ = 0;
  };

  /// Owner-thread snapshot of one connection for INSPECT. Deadlines are
  /// milliseconds-until (-1 = not armed) so the JSON is self-contained.
  struct ConnView {
    int fd = -1;
    std::uint32_t peer_addr = 0;
    std::uint16_t peer_port = 0;
    std::uint64_t age_ms = 0;
    std::uint64_t requests = 0;
    std::uint64_t inbuf_bytes = 0;
    std::uint64_t outbuf_bytes = 0;
    bool parked = false;
    bool closing = false;
    bool binary = false;
    std::int64_t idle_deadline_ms = -1;
    std::int64_t write_deadline_ms = -1;
  };

  struct ShardView {
    std::vector<ConnView> conns;
    std::size_t idle_timers = 0;
    std::size_t write_timers = 0;
    std::size_t work_queue = 0;
  };

  QueryServer* srv = nullptr;
  unsigned index = 0;
  int epoll_fd = -1;
  int event_fd = -1;
  std::thread thread;

  std::mutex inbox_mu;
  std::vector<int> inbox;  ///< fds handed over by the accept thread

  std::unordered_map<int, std::unique_ptr<Conn>> conns;  ///< owner-thread only
  TimerList idle_timers{&Conn::idle_link};
  TimerList write_timers{&Conn::write_link};

  /// Connections with buffered complete requests beyond the per-pass
  /// budget, resumed before the next epoll_wait (which then uses a zero
  /// timeout). Stored as fds, not pointers: a connection closed while
  /// parked simply misses the conns lookup on resume.
  std::vector<int> work_fds;
  std::vector<int> work_scratch;

  std::atomic<std::size_t> mem_bytes{0};  ///< sum of Conn footprints
  obs::Gauge* conn_gauge = nullptr;

  // Scratch reused across requests: the recv landing zone and the binary
  // batch address/record arrays — zero allocation at steady state.
  std::vector<char> chunk = std::vector<char>(kReadChunk);
  std::vector<std::uint32_t> addrs;
  std::vector<std::uint32_t> records;

  /// Per-shard flight recorder (null when Options::flight_ring is 0).
  /// This thread is its only writer; INSPECT handlers read it directly.
  std::unique_ptr<obs::FlightRecorder> recorder;

  /// Requests answered in the current event-loop pass, waiting for the
  /// flush attempt that stamps their write stage (commit_flights()).
  struct PendingFlight {
    obs::FlightRecord rec;
    steady_clock::time_point engine_done{};
    std::string detail;  ///< request text, kept only if already slow
  };
  std::vector<PendingFlight> inflight;

  // INSPECT view handshake: an inspecting thread sets view_wanted and
  // kicks the eventfd; this thread publishes a fresh ShardView under
  // view_mu and bumps view_seq. The inspector waits on view_cv with a
  // bounded deadline, so a wedged shard yields a stale row instead of a
  // stuck INSPECT (docs/OBSERVABILITY.md).
  std::atomic<bool> view_wanted{false};
  std::mutex view_mu;
  std::condition_variable view_cv;
  std::uint64_t view_seq = 0;  ///< guarded by view_mu
  ShardView view;              ///< guarded by view_mu

  /// The shard whose event loop runs on this thread (null on accept /
  /// test / bench threads). Lets an INSPECT handled on a shard thread
  /// fill its own view synchronously — required so two concurrent
  /// INSPECTs on different shards can never wait on each other.
  static inline thread_local Shard* t_current = nullptr;

  void loop();
  void note_work(Conn& conn);
  void adopt_inbox();
  void apply_drain(bool force);
  int compute_timeout(steady_clock::time_point now) const;
  void expire_timers(steady_clock::time_point now);
  void on_readable(Conn& conn);
  bool process(Conn& conn);
  bool process_frame(Conn& conn);
  bool flush(Conn& conn);
  bool finish_io(Conn& conn);
  void update_interest(Conn& conn);
  void account(Conn& conn);
  void close_conn(Conn& conn, CloseReason reason);
  void note_flight(Conn& conn, const RequestFlight& rf,
                   std::string_view line, std::size_t bytes_out);
  void commit_flights();
  void publish_view();
};

void QueryServer::Shard::account(Conn& conn) {
  const std::size_t current = conn.footprint();
  if (current > conn.accounted) {
    mem_bytes.fetch_add(current - conn.accounted, std::memory_order_relaxed);
  } else if (current < conn.accounted) {
    mem_bytes.fetch_sub(conn.accounted - current, std::memory_order_relaxed);
  }
  conn.accounted = current;
}

void QueryServer::Shard::close_conn(Conn& conn, CloseReason reason) {
  srv->closed_counter(reason).add(1);
  idle_timers.cancel(&conn);
  write_timers.cancel(&conn);
  ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  mem_bytes.fetch_sub(conn.accounted, std::memory_order_relaxed);
  if (conn_gauge != nullptr) conn_gauge->add(-1);
  const int fd = conn.fd;
  conns.erase(fd);  // destroys conn — must be the last touch
  if (srv->live_conns_.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
      (srv->drain_.load(std::memory_order_acquire) ||
       srv->stop_.load(std::memory_order_acquire))) {
    // The drain CV wakes stop() the instant the last connection closes;
    // the empty critical section pairs with the wait_for's lock so the
    // notify cannot slip between its predicate check and its sleep.
    { std::lock_guard<std::mutex> lock(srv->drain_mu_); }
    srv->drain_cv_.notify_all();
  }
}

void QueryServer::Shard::note_work(Conn& conn) {
  if (conn.work_pending) return;
  conn.work_pending = true;
  work_fds.push_back(conn.fd);
}

void QueryServer::Shard::note_flight(Conn& conn, const RequestFlight& rf,
                                     std::string_view line,
                                     std::size_t bytes_out) {
  // All three stage stamps come out of handle_request's own timing — the
  // recorder adds no clock reads of its own on the text path.
  const auto engine_done = rf.done;
  PendingFlight pf;
  pf.rec.start_ns = elapsed_ns(srv->start_time_, conn.last_recv);
  pf.rec.read_ns = elapsed_ns(conn.last_recv, rf.start);
  pf.rec.parse_ns = elapsed_ns(rf.start, rf.parse_done);
  pf.rec.engine_ns = elapsed_ns(rf.parse_done, engine_done);
  pf.rec.bytes_in = line.size() + 1;
  pf.rec.bytes_out = bytes_out;
  pf.rec.epoch = rf.epoch;
  pf.rec.verb = rf.verb;
  pf.rec.status = rf.error ? 1 : 0;
  pf.rec.fd = conn.fd;
  pf.rec.peer_addr = conn.peer_addr;
  pf.rec.peer_port = conn.peer_port;
  pf.engine_done = engine_done;
  // The write stage is still unknown, so the slow log's detail text is
  // copied once the pre-write stages alone reach half the threshold — a
  // request made slow purely by output-buffer wait keeps its record but
  // loses the request text (documented in docs/OBSERVABILITY.md). Fast
  // requests — the overwhelming majority — never pay the copy.
  if (pf.rec.read_ns + pf.rec.parse_ns + pf.rec.engine_ns >=
      recorder->slow_threshold_ns() / 2) {
    pf.detail = std::string(line.substr(0, 128));
  }
  inflight.push_back(std::move(pf));
}

void QueryServer::Shard::commit_flights() {
  if (inflight.empty()) return;
  const auto now = steady_clock::now();
  for (PendingFlight& pf : inflight) {
    pf.rec.write_ns = elapsed_ns(pf.engine_done, now);
    pf.rec.total_ns =
        pf.rec.read_ns + pf.rec.parse_ns + pf.rec.engine_ns + pf.rec.write_ns;
    recorder->record(pf.rec, pf.detail);
  }
  inflight.clear();
}

void QueryServer::Shard::publish_view() {
  const auto now = steady_clock::now();
  ShardView fresh;
  fresh.conns.reserve(conns.size());
  auto ms_until = [&](const Conn::Link& link) -> std::int64_t {
    if (!link.armed) return -1;
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        link.deadline - now)
                        .count();
    return std::max<std::int64_t>(ms, 0);
  };
  for (const auto& [fd, conn] : conns) {
    ConnView cv;
    cv.fd = fd;
    cv.peer_addr = conn->peer_addr;
    cv.peer_port = conn->peer_port;
    cv.age_ms = elapsed_ns(conn->opened, now) / 1'000'000;
    cv.requests = conn->requests;
    cv.inbuf_bytes = conn->avail();
    cv.outbuf_bytes =
        (conn->out_front.size() - conn->out_off) + conn->out_back.size();
    cv.parked = conn->work_pending;
    cv.closing = conn->closing;
    cv.binary = conn->seen_binary;
    cv.idle_deadline_ms = ms_until(conn->idle_link);
    cv.write_deadline_ms = ms_until(conn->write_link);
    fresh.conns.push_back(cv);
  }
  fresh.idle_timers = idle_timers.size();
  fresh.write_timers = write_timers.size();
  fresh.work_queue = work_fds.size();
  {
    std::lock_guard<std::mutex> lock(view_mu);
    view = std::move(fresh);
    ++view_seq;
  }
  view_cv.notify_all();
}

void QueryServer::Shard::update_interest(Conn& conn) {
  std::uint32_t want = 0;
  // Input-side backpressure: once the unconsumed backlog passes the cap
  // (only reachable via fairness yields), stop reading until the work
  // list drains it back under — the peer is throttled by TCP instead of
  // growing our buffer without bound.
  if (!conn.closing && conn.avail() <= kMaxBufferedInput) want |= EPOLLIN;
  if (conn.has_output()) want |= EPOLLOUT;
  if (want == conn.armed_events) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = conn.fd;
  ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.armed_events = want;
}

bool QueryServer::Shard::flush(Conn& conn) {
  while (conn.has_output()) {
    iovec iov[2];
    std::size_t iov_count = 0;
    if (conn.out_off < conn.out_front.size()) {
      iov[iov_count++] = {conn.out_front.data() + conn.out_off,
                          conn.out_front.size() - conn.out_off};
    }
    if (!conn.out_back.empty()) {
      iov[iov_count++] = {conn.out_back.data(), conn.out_back.size()};
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iov_count;
    ssize_t n;
    int injected = 0;
    if (fault::inject("serve.write", &injected)) {
      n = -1;
      errno = injected;
    } else {
      n = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;  // full
      return false;  // peer gone / hard error
    }
    srv->bytes_written_.add(static_cast<std::uint64_t>(n));
    std::size_t wrote = static_cast<std::size_t>(n);
    while (wrote > 0) {
      const std::size_t front_left = conn.out_front.size() - conn.out_off;
      if (wrote < front_left) {
        conn.out_off += wrote;
        wrote = 0;
      } else {
        wrote -= front_left;
        conn.out_front.clear();
        conn.out_off = 0;
        std::swap(conn.out_front, conn.out_back);
      }
    }
  }
  return true;
}

bool QueryServer::Shard::finish_io(Conn& conn) {
  if (!flush(conn)) {
    close_conn(conn, CloseReason::kPeer);
    return false;
  }
  // Backpressure: a peer that keeps pipelining requests without reading
  // the responses grows the pending output without bound. Over the cap
  // the connection is cut — the kernel socket buffer plus the cap is all
  // a slow reader can ever pin.
  if (const std::size_t cap = srv->options_.max_outbuf_bytes; cap > 0) {
    const std::size_t pending =
        (conn.out_front.size() - conn.out_off) + conn.out_back.size();
    if (pending > cap) {
      close_conn(conn, CloseReason::kOutbufOverflow);
      return false;
    }
  }
  if (!conn.has_output()) {
    write_timers.cancel(&conn);
    if (conn.closing) {
      close_conn(conn, conn.close_reason);
      return false;
    }
  } else if (srv->options_.io_timeout_ms > 0 && !conn.write_link.armed) {
    // Armed when output first becomes pending, not re-armed on partial
    // progress: the whole backlog must drain within one write deadline.
    write_timers.arm(&conn,
                     steady_clock::now() + std::chrono::milliseconds(
                                               srv->options_.io_timeout_ms));
  }
  account(conn);
  update_interest(conn);
  return true;
}

bool QueryServer::Shard::process_frame(Conn& conn) {
  conn.seen_binary = true;
  if (conn.avail() < wire::kHeaderSize) return true;  // torn header: wait
  wire::FrameHeader header;
  if (!wire::decode_header(conn.in.data() + conn.in_off, header)) {
    // Bad magic means framing itself is lost; there is no safe resync.
    srv->malformed_.add(1);
    return false;
  }
  wire::FrameHeader resp;
  resp.opcode = header.opcode;
  resp.request_id = header.request_id;
  resp.epoch = header.epoch;
  if (header.payload_len > wire::kMaxPayload) {
    // Refuse to buffer it: error frame, then close once it flushes.
    srv->malformed_.add(1);
    resp.status = wire::kTooLarge;
    wire::append_header(conn.out_back, resp);
    conn.closing = true;
    conn.close_reason = CloseReason::kError;
    return true;
  }
  if (conn.avail() < wire::kHeaderSize + header.payload_len) {
    return true;  // torn payload: wait for the rest
  }
  const char* payload = conn.in.data() + conn.in_off + wire::kHeaderSize;
  conn.in_off += wire::kHeaderSize + header.payload_len;

  const bool recording = recorder != nullptr && recorder->enabled();
  const std::size_t out_before = conn.out_back.size();
  const auto start = steady_clock::now();
  srv->requests_.add(1);
  srv->bin_frames_.add(1);
  switch (header.opcode) {
    case wire::kOpLpmBatch: {
      if (header.payload_len % 4 != 0 ||
          header.payload_len / 4 > wire::kMaxFrameEntries) {
        srv->malformed_.add(1);
        resp.status = wire::kBadFrame;
        wire::append_header(conn.out_back, resp);
        break;
      }
      const std::shared_ptr<const ServingView> view = srv->view();
      std::shared_ptr<const EngineState> pin;
      auto resolved = resolve(*view, header.epoch, pin);
      if (!resolved) {
        // Body-level error: the stream is still framed, so the peer can
        // keep pipelining other epochs over the same connection.
        srv->malformed_.add(1);
        resp.status = wire::kBadEpoch;
        wire::append_header(conn.out_back, resp);
        break;
      }
      const std::size_t n = header.payload_len / 4;
      addrs.resize(n);
      records.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        addrs[i] = wire::load_u32le(payload + 4 * i);
      }
      const QueryEngine& engine = (*resolved)->engine();
      engine.lookup_batch(addrs, records);
      srv->bin_lookups_.add(n);
      resp.status = wire::kOk;
      resp.payload_len = static_cast<std::uint32_t>(n * wire::kResultSize);
      wire::append_header(conn.out_back, resp);
      std::uint64_t hit_count = 0;
      for (std::size_t i = 0; i < n; ++i) {
        wire::Result result;
        if (records[i] == QueryEngine::kNoRecord) {
          result.prefix_len = wire::kMissLen;
        } else {
          ++hit_count;
          const QueryEngine::Brief brief = engine.brief(records[i]);
          result.prefix_addr = brief.prefix_addr;
          result.prefix_len = brief.prefix_len;
          result.group = brief.group;
          result.flags = brief.leased ? wire::kFlagLeased : 0;
        }
        wire::append_result(conn.out_back, result);
      }
      srv->hits_.add(hit_count);
      srv->misses_.add(n - hit_count);
      break;
    }
    case wire::kOpExactBatch: {
      if (header.payload_len % 8 != 0 ||
          header.payload_len / 8 > wire::kMaxFrameEntries) {
        srv->malformed_.add(1);
        resp.status = wire::kBadFrame;
        wire::append_header(conn.out_back, resp);
        break;
      }
      const std::size_t n = header.payload_len / 8;
      bool bad_entry = false;
      for (std::size_t i = 0; i < n; ++i) {
        if (static_cast<unsigned char>(payload[8 * i + 4]) > 32) {
          bad_entry = true;
          break;
        }
      }
      if (bad_entry) {
        srv->malformed_.add(1);
        resp.status = wire::kBadFrame;
        wire::append_header(conn.out_back, resp);
        break;
      }
      const std::shared_ptr<const ServingView> view = srv->view();
      std::shared_ptr<const EngineState> pin;
      auto resolved = resolve(*view, header.epoch, pin);
      if (!resolved) {
        srv->malformed_.add(1);
        resp.status = wire::kBadEpoch;
        wire::append_header(conn.out_back, resp);
        break;
      }
      const QueryEngine& engine = (*resolved)->engine();
      srv->bin_lookups_.add(n);
      resp.status = wire::kOk;
      resp.payload_len = static_cast<std::uint32_t>(n * wire::kResultSize);
      wire::append_header(conn.out_back, resp);
      std::uint64_t hit_count = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t addr = wire::load_u32le(payload + 8 * i);
        const int len = static_cast<unsigned char>(payload[8 * i + 4]);
        auto prefix = Prefix::make(Ipv4Addr(addr), len);  // canonicalizes
        wire::Result result;
        std::optional<std::uint32_t> idx =
            prefix ? engine.exact(*prefix) : std::nullopt;
        if (!idx) {
          result.prefix_len = wire::kMissLen;
        } else {
          ++hit_count;
          const QueryEngine::Brief brief = engine.brief(*idx);
          result.prefix_addr = brief.prefix_addr;
          result.prefix_len = brief.prefix_len;
          result.group = brief.group;
          result.flags = brief.leased ? wire::kFlagLeased : 0;
        }
        wire::append_result(conn.out_back, result);
      }
      srv->hits_.add(hit_count);
      srv->misses_.add(n - hit_count);
      break;
    }
    default: {
      srv->malformed_.add(1);
      resp.status = wire::kBadOpcode;
      wire::append_header(conn.out_back, resp);
      break;
    }
  }
  const auto engine_done = steady_clock::now();
  srv->latency_bin_.record(elapsed_ns(start, engine_done));
  if (recording) {
    PendingFlight pf;
    pf.rec.start_ns = elapsed_ns(srv->start_time_, conn.last_recv);
    pf.rec.read_ns = elapsed_ns(conn.last_recv, start);
    // Frame decoding happens inline with dispatch; the binary path has no
    // separate tokenize step, so "parse" is folded into "engine".
    pf.rec.engine_ns = elapsed_ns(start, engine_done);
    pf.rec.bytes_in = wire::kHeaderSize + header.payload_len;
    pf.rec.bytes_out = conn.out_back.size() - out_before;
    pf.rec.epoch = header.epoch;
    pf.rec.verb = static_cast<std::uint8_t>(Verb::kBin);
    pf.rec.status = resp.status == wire::kOk ? 0 : 1;
    pf.rec.fd = conn.fd;
    pf.rec.peer_addr = conn.peer_addr;
    pf.rec.peer_port = conn.peer_port;
    pf.engine_done = engine_done;
    if (pf.rec.read_ns + pf.rec.engine_ns >=
        recorder->slow_threshold_ns() / 2) {
      char detail[64];
      std::snprintf(detail, sizeof(detail), "BIN opcode=%u payload=%u",
                    static_cast<unsigned>(header.opcode),
                    static_cast<unsigned>(header.payload_len));
      pf.detail = detail;
    }
    inflight.push_back(std::move(pf));
  }
  ++conn.requests;
  return true;
}

bool QueryServer::Shard::process(Conn& conn) {
  std::size_t handled = 0;
  for (;;) {
    if (conn.closing || conn.avail() == 0) return true;
    if (handled >= kMaxRequestsPerPass) {
      srv->fair_yields_.add(1);
      note_work(conn);  // resume next pass; others on the shard run first
      return true;
    }
    if (static_cast<unsigned char>(conn.in[conn.in_off]) ==
        wire::kMagicByte0) {
      const std::size_t before = conn.in_off;
      if (!process_frame(conn)) return false;
      if (conn.in_off == before && !conn.closing) return true;  // torn
      ++handled;
      continue;
    }
    const std::size_t nl = conn.in.find('\n', conn.in_off);
    if (nl == std::string::npos) {
      // No complete line; a peer streaming unbounded junk is cut off.
      return conn.avail() <= kMaxBufferedInput;
    }
    std::string_view line(conn.in.data() + conn.in_off, nl - conn.in_off);
    conn.in_off = nl + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    const bool recording = recorder != nullptr && recorder->enabled();
    RequestFlight rf;
    std::string response =
        srv->handle_request(line, recording ? &rf : nullptr);
    if (recording) {
      note_flight(conn, rf, line, response.size() + 1);
    }
    conn.out_back += response;
    conn.out_back += '\n';
    ++conn.requests;
    ++handled;
    if (srv->stop_.load(std::memory_order_acquire)) {
      // SHUTDOWN (from this or any connection): answer what is in flight,
      // drop the rest of the pipeline, flush, close.
      conn.closing = true;
      conn.close_reason = CloseReason::kDrain;
      return true;
    }
  }
}

void QueryServer::Shard::on_readable(Conn& conn) {
  if (conn.closing) return;
  if (recorder != nullptr && recorder->enabled()) {
    // Warm the next ring slot while the recv and the request's own work
    // overlap the miss (see FlightRecorder::prefetch_next).
    recorder->prefetch_next();
  }
  ssize_t n;
  int injected = 0;
  if (fault::inject("serve.read", &injected)) {
    n = -1;
    errno = injected;
  } else {
    n = ::recv(conn.fd, chunk.data(), chunk.size(), 0);
  }
  if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
    return;  // level-triggered epoll re-reports anything still pending
  }
  if (n <= 0) {
    close_conn(conn, n == 0 ? CloseReason::kPeer : CloseReason::kError);
    return;
  }
  srv->bytes_read_.add(static_cast<std::uint64_t>(n));
  conn.in.append(chunk.data(), static_cast<std::size_t>(n));
  conn.last_recv = steady_clock::now();
  if (srv->options_.idle_timeout_ms > 0) {
    idle_timers.arm(&conn, conn.last_recv + std::chrono::milliseconds(
                                                srv->options_.idle_timeout_ms));
  }
  if (!process(conn)) {
    close_conn(conn, CloseReason::kError);
    commit_flights();
    return;
  }
  conn.compact();
  finish_io(conn);
  // The flush attempt just happened: stamp the write stage of everything
  // answered in this pass and hand the records to the recorder. Safe even
  // if finish_io closed the connection — pending records are value copies.
  commit_flights();
}

void QueryServer::Shard::expire_timers(steady_clock::time_point now) {
  while (Conn* conn = idle_timers.front()) {
    if (conn->idle_link.deadline > now) break;
    idle_timers.cancel(conn);
    // Best-effort farewell for text peers; a binary peer would read it as
    // a corrupt frame, so it just gets the close.
    if (!conn->seen_binary) conn->out_back += "{\"error\":\"idle timeout\"}\n";
    conn->closing = true;
    conn->close_reason = CloseReason::kIdleTimeout;
    finish_io(*conn);  // flushes + closes, or arms the write deadline
  }
  while (Conn* conn = write_timers.front()) {
    if (conn->write_link.deadline > now) break;
    close_conn(*conn, CloseReason::kWriteTimeout);
  }
}

int QueryServer::Shard::compute_timeout(steady_clock::time_point now) const {
  long long best = -1;
  auto consider = [&](steady_clock::time_point deadline) {
    auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                    now)
                  .count() +
              1;  // round up so we wake at-or-after the deadline
    ms = std::max<long long>(ms, 0);
    if (best < 0 || ms < best) best = ms;
  };
  if (const Conn* conn = idle_timers.front()) {
    consider(conn->idle_link.deadline);
  }
  if (const Conn* conn = write_timers.front()) {
    consider(conn->write_link.deadline);
  }
  if (best < 0) return -1;  // no timers: the eventfd is the only wake-up
  return static_cast<int>(std::min<long long>(best, 60'000));
}

void QueryServer::Shard::adopt_inbox() {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lock(inbox_mu);
    fds.swap(inbox);
  }
  for (int fd : fds) {
    auto owned = std::make_unique<Conn>();
    owned->fd = fd;
    owned->opened = steady_clock::now();
    owned->last_recv = owned->opened;
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    if (::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &peer_len) ==
            0 &&
        peer.sin_family == AF_INET) {
      owned->peer_addr = ntohl(peer.sin_addr.s_addr);
      owned->peer_port = ntohs(peer.sin_port);
    }
    Conn* conn = owned.get();
    conns.emplace(fd, std::move(owned));
    if (conn_gauge != nullptr) conn_gauge->add(1);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      close_conn(*conn, CloseReason::kError);
      continue;
    }
    conn->armed_events = EPOLLIN;
    if (srv->options_.idle_timeout_ms > 0) {
      idle_timers.arm(conn, steady_clock::now() +
                                std::chrono::milliseconds(
                                    srv->options_.idle_timeout_ms));
    }
    account(*conn);
  }
}

void QueryServer::Shard::apply_drain(bool force) {
  std::vector<Conn*> doomed;
  for (auto& [fd, conn] : conns) {
    if (force || !conn->has_output()) {
      doomed.push_back(conn.get());
    } else if (!conn->closing) {
      // Pending responses flush first; the write deadline (or force at the
      // drain deadline) bounds how long a non-reading peer can hold us.
      conn->closing = true;
      conn->close_reason = CloseReason::kDrain;
      idle_timers.cancel(conn.get());
      if (srv->options_.io_timeout_ms > 0 && !conn->write_link.armed) {
        write_timers.arm(conn.get(),
                         steady_clock::now() +
                             std::chrono::milliseconds(
                                 srv->options_.io_timeout_ms));
      }
      update_interest(*conn);
    }
  }
  for (Conn* conn : doomed) close_conn(*conn, CloseReason::kDrain);
}

void QueryServer::Shard::loop() {
  t_current = this;
  std::vector<epoll_event> events(128);
  for (;;) {
    const bool draining = srv->drain_.load(std::memory_order_acquire) ||
                          srv->stop_.load(std::memory_order_acquire);
    const bool forcing = srv->force_.load(std::memory_order_acquire);
    if (draining || forcing) {
      adopt_inbox();  // late handovers get closed with correct accounting
      apply_drain(forcing);
      if (conns.empty()) return;
    }
    const int timeout_ms =
        work_fds.empty() ? compute_timeout(steady_clock::now()) : 0;
    int n;
    int injected = 0;
    if (fault::inject("serve.epoll_wait", &injected)) {
      n = -1;
      errno = injected;
    } else {
      n = ::epoll_wait(epoll_fd, events.data(),
                       static_cast<int>(events.size()), timeout_ms);
    }
    if (n < 0) {
      if (errno != EINTR) {
        srv->epoll_retries_.add(1);
        SUBLET_LOG(kWarn) << "epoll_wait(shard " << index
                          << "): " << strerror(errno) << "; retrying";
      }
      continue;
    }
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[i];
      if (ev.data.fd == event_fd) {
        std::uint64_t drained = 0;
        [[maybe_unused]] ssize_t rc =
            ::read(event_fd, &drained, sizeof(drained));
        adopt_inbox();
        continue;
      }
      auto it = conns.find(ev.data.fd);
      if (it == conns.end()) continue;  // closed earlier in this batch
      Conn& conn = *it->second;
      if (ev.events & (EPOLLERR | EPOLLHUP)) {
        close_conn(conn, CloseReason::kError);
        continue;
      }
      if ((ev.events & EPOLLOUT) != 0 && !finish_io(conn)) continue;
      if ((ev.events & EPOLLIN) != 0) on_readable(conn);
    }
    // Resume connections parked at the fairness budget, one budget each;
    // a still-backlogged connection re-parks itself for the next pass.
    if (!work_fds.empty()) {
      work_scratch.clear();
      work_scratch.swap(work_fds);
      for (int fd : work_scratch) {
        auto it = conns.find(fd);
        if (it == conns.end()) continue;  // closed while parked
        Conn& conn = *it->second;
        conn.work_pending = false;
        if (!process(conn)) {
          close_conn(conn, CloseReason::kError);
          commit_flights();
          continue;
        }
        conn.compact();
        finish_io(conn);
        commit_flights();
      }
    }
    if (view_wanted.exchange(false, std::memory_order_acq_rel)) {
      publish_view();
    }
    expire_timers(steady_clock::now());
  }
}

// ---- server ---------------------------------------------------------------

QueryServer::QueryServer(std::shared_ptr<const EngineState> engine,
                         Options options)
    : QueryServer(std::make_shared<SnapshotFile>(engine), engine, options) {}

QueryServer::QueryServer(std::shared_ptr<EpochSource> source,
                         std::shared_ptr<const EngineState> initial,
                         Options options)
    : options_(options),
      requests_(registry_.counter("sublet_serve_requests_total",
                                  "Requests handled (all verbs)")),
      hits_(registry_.counter("sublet_serve_hits_total",
                              "EXACT/LPM lookups that found a record")),
      misses_(registry_.counter("sublet_serve_misses_total",
                                "EXACT/LPM lookups with no record")),
      malformed_(registry_.counter("sublet_serve_malformed_total",
                                   "Requests rejected as malformed")),
      accept_retries_(registry_.counter(
          "sublet_serve_accept_retries_total",
          "Transient accept() errors survived by the accept loop")),
      epoll_retries_(registry_.counter(
          "sublet_serve_epoll_retries_total",
          "epoll_wait() errors survived by the shard event loops")),
      reloads_(registry_.counter("sublet_serve_reloads_total",
                                 "Successful snapshot hot swaps")),
      reload_failures_(registry_.counter(
          "sublet_serve_reload_failures_total",
          "Rejected RELOADs (previous engine kept serving)")),
      fair_yields_(registry_.counter(
          "sublet_serve_fair_yields_total",
          "Event-loop passes that stopped at the per-connection request "
          "budget so other connections on the shard could run")),
      bin_frames_(registry_.counter("sublet_serve_bin_frames_total",
                                    "Binary protocol frames handled")),
      bin_lookups_(registry_.counter(
          "sublet_serve_bin_lookups_total",
          "Addresses resolved through binary batch frames")),
      bytes_read_(registry_.counter("sublet_serve_bytes_read_total",
                                    "Bytes received from clients")),
      bytes_written_(registry_.counter("sublet_serve_bytes_written_total",
                                       "Bytes sent to clients")),
      generation_gauge_(registry_.gauge("sublet_serve_generation",
                                        "Current engine generation")),
      active_conns_gauge_(registry_.gauge(
          "sublet_serve_active_connections", "Currently open connections")),
      latency_exact_(registry_.histogram(
          obs::labeled("sublet_serve_latency_ns", "verb", "exact"),
          "Per-request handling latency")),
      latency_lpm_(registry_.histogram(
          obs::labeled("sublet_serve_latency_ns", "verb", "lpm"))),
      latency_mlpm_(registry_.histogram(
          obs::labeled("sublet_serve_latency_ns", "verb", "mlpm"))),
      latency_bin_(registry_.histogram(
          obs::labeled("sublet_serve_latency_ns", "verb", "bin"))),
      latency_at_(registry_.histogram(
          obs::labeled("sublet_serve_latency_ns", "verb", "at"))),
      latency_history_(registry_.histogram(
          obs::labeled("sublet_serve_latency_ns", "verb", "history"))),
      latency_other_(registry_.histogram(
          obs::labeled("sublet_serve_latency_ns", "verb", "other"))),
      closed_idle_(registry_.counter(
          obs::labeled("sublet_serve_conn_closed_total", "reason",
                       "idle_timeout"),
          "Connections closed, by reason")),
      closed_write_(registry_.counter(obs::labeled(
          "sublet_serve_conn_closed_total", "reason", "write_timeout"))),
      closed_overflow_(registry_.counter(obs::labeled(
          "sublet_serve_conn_closed_total", "reason", "outbuf_overflow"))),
      closed_shed_(registry_.counter(
          obs::labeled("sublet_serve_conn_closed_total", "reason", "shed"))),
      closed_drain_(registry_.counter(
          obs::labeled("sublet_serve_conn_closed_total", "reason", "drain"))),
      closed_peer_(registry_.counter(
          obs::labeled("sublet_serve_conn_closed_total", "reason", "peer"))),
      closed_error_(registry_.counter(
          obs::labeled("sublet_serve_conn_closed_total", "reason", "error"))) {
  std::vector<std::uint32_t> epochs = source->epochs();
  view_ = std::make_shared<const ServingView>(ServingView{
      std::move(source), std::move(epochs), std::move(initial)});
}

QueryServer::~QueryServer() { stop(); }

std::shared_ptr<const ServingView> QueryServer::view() const {
  std::lock_guard<std::mutex> lock(engine_mu_);
  return view_;
}

obs::Histogram& QueryServer::verb_histogram(Verb verb) {
  switch (verb) {
    case Verb::kExact: return latency_exact_;
    case Verb::kLpm: return latency_lpm_;
    case Verb::kMlpm: return latency_mlpm_;
    case Verb::kBin: return latency_bin_;
    case Verb::kAt: return latency_at_;
    case Verb::kHistory: return latency_history_;
    case Verb::kOther: break;
  }
  return latency_other_;
}

obs::Counter& QueryServer::closed_counter(CloseReason reason) {
  switch (reason) {
    case CloseReason::kIdleTimeout: return closed_idle_;
    case CloseReason::kWriteTimeout: return closed_write_;
    case CloseReason::kOutbufOverflow: return closed_overflow_;
    case CloseReason::kShed: return closed_shed_;
    case CloseReason::kDrain: return closed_drain_;
    case CloseReason::kPeer: return closed_peer_;
    case CloseReason::kError: break;
  }
  return closed_error_;
}

void QueryServer::set_flight_recording(bool on) {
  flight_enabled_.store(on, std::memory_order_release);
  for (auto& shard : shards_) {
    if (shard->recorder != nullptr) shard->recorder->set_enabled(on);
  }
}

bool QueryServer::flight_recording() const {
  return flight_enabled_.load(std::memory_order_acquire);
}

std::size_t QueryServer::connection_memory_bytes() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->mem_bytes.load(std::memory_order_relaxed);
  }
  return total;
}

Expected<std::uint16_t> QueryServer::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket(): " + std::string(strerror(errno)));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    std::string message = "bind(): " + std::string(strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return fail(std::move(message));
  }
  if (::listen(listen_fd_, 128) != 0) {
    std::string message = "listen(): " + std::string(strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return fail(std::move(message));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  start_time_ = steady_clock::now();

  unsigned shards = options_.shards;
  if (shards == 0) shards = std::max(1u, std::thread::hardware_concurrency());
  shard_count_ = shards;
  auto teardown = [this] {
    for (auto& shard : shards_) {
      if (shard->epoll_fd >= 0) ::close(shard->epoll_fd);
      if (shard->event_fd >= 0) ::close(shard->event_fd);
    }
    shards_.clear();
    ::close(listen_fd_);
    listen_fd_ = -1;
  };
  for (unsigned i = 0; i < shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->srv = this;
    shard->index = i;
    shard->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    shard->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (shard->epoll_fd < 0 || shard->event_fd < 0) {
      std::string message =
          "epoll/eventfd setup: " + std::string(strerror(errno));
      shards_.push_back(std::move(shard));
      teardown();
      return fail(std::move(message));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = shard->event_fd;
    if (::epoll_ctl(shard->epoll_fd, EPOLL_CTL_ADD, shard->event_fd, &ev) !=
        0) {
      std::string message = "epoll_ctl(): " + std::string(strerror(errno));
      shards_.push_back(std::move(shard));
      teardown();
      return fail(std::move(message));
    }
    shard->conn_gauge = &registry_.gauge(
        obs::labeled("sublet_serve_shard_connections", "shard",
                     std::to_string(i)),
        "Open connections owned by this event-loop shard");
    if (options_.flight_ring > 0) {
      obs::FlightRecorder::Options recorder_options;
      recorder_options.ring_capacity = options_.flight_ring;
      recorder_options.slow_capacity = options_.slow_log;
      recorder_options.slow_threshold_ns = options_.slow_threshold_us * 1000;
      shard->recorder =
          std::make_unique<obs::FlightRecorder>(recorder_options);
    }
    shards_.push_back(std::move(shard));
  }
  flight_enabled_.store(options_.flight_ring > 0, std::memory_order_release);
  for (auto& shard : shards_) {
    Shard* raw = shard.get();
    shard->thread = std::thread([raw] { raw->loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  return port_;
}

void QueryServer::wake_all_shards() {
  for (auto& shard : shards_) {
    if (shard->event_fd < 0) continue;
    std::uint64_t one = 1;
    [[maybe_unused]] ssize_t rc =
        ::write(shard->event_fd, &one, sizeof(one));
  }
}

void QueryServer::accept_loop() {
  int backoff_ms = 0;
  std::size_t next_shard = 0;
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) return;
    int ready = wait_fd(listen_fd_, POLLIN, kPollSliceMs);
    if (ready == 0) continue;  // slice expired; re-check stop_
    if (ready < 0) return;     // listener gone
    int injected = 0;
    int fd;
    if (fault::inject("serve.accept", &injected)) {
      fd = -1;
      errno = injected;
    } else {
      fd = ::accept(listen_fd_, nullptr, nullptr);
    }
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (stop_.load(std::memory_order_acquire)) return;
      if (transient_accept_error(errno)) {
        accept_retries_.add(1);
        backoff_ms = backoff_ms == 0 ? 1 : std::min(backoff_ms * 2, 200);
        SUBLET_LOG(kWarn) << "accept(): " << strerror(errno)
                          << "; retrying in " << backoff_ms << "ms";
        std::unique_lock<std::mutex> lock(stop_mu_);
        stop_cv_.wait_for(lock, std::chrono::milliseconds(backoff_ms), [this] {
          return stop_.load(std::memory_order_acquire);
        });
        continue;
      }
      SUBLET_LOG(kError) << "accept(): " << strerror(errno)
                         << "; accept loop exiting";
      return;
    }
    backoff_ms = 0;
    if (stop_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    const std::size_t current =
        live_conns_.fetch_add(1, std::memory_order_acq_rel);
    if (options_.max_conns > 0 && current >= options_.max_conns) {
      // Shed instead of queueing unboundedly: one line, then close. The
      // fd stays blocking here — it never reaches a shard.
      live_conns_.fetch_sub(1, std::memory_order_acq_rel);
      closed_shed_.add(1);
      send_with_deadline(fd, "{\"error\":\"overloaded\"}\n");
      ::close(fd);
      continue;
    }
    set_nonblocking(fd);
    Shard& shard = *shards_[next_shard++ % shard_count_];
    {
      std::lock_guard<std::mutex> lock(shard.inbox_mu);
      shard.inbox.push_back(fd);
    }
    std::uint64_t one = 1;
    [[maybe_unused]] ssize_t rc = ::write(shard.event_fd, &one, sizeof(one));
  }
}

bool QueryServer::send_with_deadline(int fd, std::string_view data) {
  const auto deadline =
      steady_clock::now() + std::chrono::milliseconds(options_.io_timeout_ms);
  while (!data.empty()) {
    if (options_.io_timeout_ms > 0) {
      auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
                           deadline - steady_clock::now())
                           .count();
      if (remaining <= 0) return false;
      int ready = wait_fd(fd, POLLOUT, static_cast<int>(remaining));
      if (ready <= 0) return false;
    }
    int injected = 0;
    ssize_t n;
    if (fault::inject("serve.write", &injected)) {
      n = -1;
      errno = injected;
    } else {
      n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    }
    if (n <= 0) {
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

Expected<std::shared_ptr<const ServingView>> QueryServer::reload(
    const std::string& path) {
  std::lock_guard<std::mutex> reload_lock(reload_mu_);
  return publish(std::make_shared<SnapshotFile>(
      path, view()->latest->generation()));
}

Expected<std::shared_ptr<const ServingView>> QueryServer::publish(
    std::shared_ptr<EpochSource> source) {
  // The load + validation runs here, off the shards' hot path — they keep
  // answering from the current view, which a failure leaves untouched.
  auto latest = source->refresh();
  if (!latest) {
    reload_failures_.add(1);
    SUBLET_LOG(kWarn) << "reload rejected: " << latest.error().to_string()
                      << " (keeping generation "
                      << view()->latest->generation() << ")";
    return latest.error();
  }
  std::vector<std::uint32_t> epochs = source->epochs();
  auto next = std::make_shared<const ServingView>(ServingView{
      std::move(source), std::move(epochs), std::move(*latest)});
  {
    std::lock_guard<std::mutex> lock(engine_mu_);
    view_ = next;
  }
  // Shards hold no view between requests (one shared_ptr acquire per
  // request) and METRICS samples the generation gauge at scrape time, so
  // the swap needs no shard wakeup.
  reloads_.add(1);
  SUBLET_LOG(kInfo) << "reloaded generation " << next->latest->generation()
                    << " from " << next->latest->path() << " ("
                    << next->epochs.size() << " epochs)";
  return next;
}

std::string QueryServer::history_json(const ServingView& view,
                                      const Prefix& query) {
  // Replay the classification of `query` across every epoch, oldest
  // first, and coalesce runs of identical answers into segments. One
  // longest-match per epoch; epochs whose chain fails to materialize are
  // listed under "unavailable" rather than failing the whole replay.
  // A single snapshot is the one epoch 0, so it answers one segment.
  std::span<const std::uint32_t> epochs = view.epochs;
  // Bound the replay cost: one request walks at most max_history_epochs
  // recent epochs (each one is a materialize + longest_match), so a
  // thousand-epoch catalog cannot turn a single HISTORY line into an
  // unbounded amount of work. Dropped older epochs are reported in
  // "truncated_epochs".
  std::size_t truncated = 0;
  if (const std::size_t cap = options_.max_history_epochs;
      cap > 0 && epochs.size() > cap) {
    truncated = epochs.size() - cap;
    epochs = epochs.subspan(truncated);
  }
  struct Answer {
    bool found = false;
    std::string prefix;
    std::uint8_t group = 0;
  };
  struct Segment {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    Answer answer;
  };
  std::vector<Segment> segments;
  std::vector<std::uint32_t> unavailable;
  for (std::uint32_t epoch : epochs) {
    std::shared_ptr<const EngineState> pin;
    auto resolved = resolve(view, epoch, pin);
    if (!resolved) {
      unavailable.push_back(epoch);
      continue;
    }
    const EngineState& state = **resolved;
    Answer answer;
    if (auto hit = state.engine().longest_match(query)) {
      const snapshot::RecordRow& row = state.snapshot().record(hit->second);
      answer.found = true;
      answer.prefix = state.snapshot().prefix_of(row).to_string();
      answer.group = row.group;
    }
    if (!segments.empty() && segments.back().answer.found == answer.found &&
        segments.back().answer.prefix == answer.prefix &&
        segments.back().answer.group == answer.group) {
      segments.back().to = epoch;
    } else {
      segments.push_back(Segment{epoch, epoch, std::move(answer)});
    }
  }
  JsonWriter json;
  json.begin_object();
  json.key("query").value(query.to_string());
  json.key("epochs").value(static_cast<std::uint64_t>(epochs.size()));
  if (!epochs.empty()) {
    json.key("first_epoch").value(static_cast<std::uint64_t>(epochs.front()));
    json.key("last_epoch").value(static_cast<std::uint64_t>(epochs.back()));
  }
  json.begin_array("segments");
  for (const Segment& segment : segments) {
    json.begin_object();
    json.key("from_epoch").value(static_cast<std::uint64_t>(segment.from));
    json.key("to_epoch").value(static_cast<std::uint64_t>(segment.to));
    json.key("found").value(segment.answer.found);
    if (segment.answer.found) {
      json.key("prefix").value(segment.answer.prefix);
      json.key("group").value(leasing::group_name(
          static_cast<leasing::InferenceGroup>(segment.answer.group)));
      json.key("leased").value(leasing::is_leased(
          static_cast<leasing::InferenceGroup>(segment.answer.group)));
    }
    json.end_object();
  }
  json.end_array();
  json.key("transitions")
      .value(static_cast<std::uint64_t>(
          segments.empty() ? 0 : segments.size() - 1));
  if (truncated > 0) {
    json.key("truncated_epochs").value(static_cast<std::uint64_t>(truncated));
  }
  if (!unavailable.empty()) {
    json.begin_array("unavailable");
    for (std::uint32_t epoch : unavailable) {
      json.value(static_cast<std::uint64_t>(epoch));
    }
    json.end_array();
  }
  json.end_object();
  return json.take();
}

std::string QueryServer::health_json() const {
  const std::shared_ptr<const ServingView> view = this->view();
  const EngineState* state = view->latest.get();
  const double uptime =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          steady_clock::now() - start_time_)
          .count();
  JsonWriter json;
  json.begin_object();
  json.key("ok").value(true);
  json.key("generation").value(state->generation());
  json.key("snapshot").value(state->path());
  json.key("records").value(
      static_cast<std::uint64_t>(state->snapshot().record_count()));
  json.key("uptime_s").value(uptime);
  json.key("draining").value(stop_.load(std::memory_order_acquire));
  json.key("active_conns").value(
      static_cast<std::uint64_t>(active_connections()));
  json.key("reloads").value(reloads_.value());
  json.end_object();
  return json.take();
}

std::string QueryServer::inspect_json() {
  // Ask every shard thread for a fresh view of its connection table. A
  // shard fills its own view synchronously when INSPECT arrived on its
  // event loop (t_loop_shard) — otherwise two concurrent INSPECTs on
  // different shards would each wait for the other's thread, which is
  // busy waiting for them. Remote shards answer at their next event-loop
  // pass; one that misses the shared deadline yields its last published
  // view marked "stale" instead of wedging the INSPECT.
  struct Pending {
    Shard* shard = nullptr;
    std::uint64_t seq0 = 0;
    bool own = false;
  };
  std::vector<Pending> pending;
  pending.reserve(shards_.size());
  for (auto& shard : shards_) {
    Pending p;
    p.shard = shard.get();
    p.own = Shard::t_current == shard.get();
    if (p.own) {
      shard->publish_view();
    } else {
      {
        std::lock_guard<std::mutex> lock(shard->view_mu);
        p.seq0 = shard->view_seq;
      }
      shard->view_wanted.store(true, std::memory_order_release);
      if (shard->event_fd >= 0) {
        std::uint64_t one = 1;
        [[maybe_unused]] ssize_t rc =
            ::write(shard->event_fd, &one, sizeof(one));
      }
    }
    pending.push_back(p);
  }
  const auto view_deadline =
      steady_clock::now() + std::chrono::milliseconds(250);

  JsonWriter json;
  json.begin_object();
  json.key("ok").value(true);
  json.key("generation").value(view()->latest->generation());
  json.key("shard_count").value(static_cast<std::uint64_t>(shard_count_));
  json.key("active_conns").value(
      static_cast<std::uint64_t>(active_connections()));
  json.key("recorder").begin_object();
  json.key("enabled").value(flight_recording());
  json.key("ring_capacity").value(
      static_cast<std::uint64_t>(options_.flight_ring));
  json.key("slow_log_capacity").value(
      static_cast<std::uint64_t>(options_.slow_log));
  json.key("slow_threshold_us").value(options_.slow_threshold_us);
  json.end_object();
  json.begin_array("shards");
  for (Pending& p : pending) {
    Shard& shard = *p.shard;
    Shard::ShardView snapshot;
    bool stale = false;
    {
      std::unique_lock<std::mutex> lock(shard.view_mu);
      if (!p.own) {
        stale = !shard.view_cv.wait_until(
            lock, view_deadline, [&] { return shard.view_seq > p.seq0; });
      }
      snapshot = shard.view;
    }
    json.begin_object();
    json.key("shard").value(static_cast<std::uint64_t>(shard.index));
    json.key("stale").value(stale);
    json.begin_array("connections");
    for (const Shard::ConnView& cv : snapshot.conns) {
      json.begin_object();
      json.key("fd").value(static_cast<std::uint64_t>(
          cv.fd < 0 ? 0 : static_cast<std::uint32_t>(cv.fd)));
      char peer[32];
      std::snprintf(peer, sizeof(peer), "%u.%u.%u.%u:%u",
                    (cv.peer_addr >> 24) & 0xFF, (cv.peer_addr >> 16) & 0xFF,
                    (cv.peer_addr >> 8) & 0xFF, cv.peer_addr & 0xFF,
                    cv.peer_port);
      json.key("peer").value(peer);
      json.key("age_ms").value(cv.age_ms);
      json.key("requests").value(cv.requests);
      json.key("inbuf_bytes").value(cv.inbuf_bytes);
      json.key("outbuf_bytes").value(cv.outbuf_bytes);
      json.key("parked").value(cv.parked);
      json.key("closing").value(cv.closing);
      json.key("binary").value(cv.binary);
      json.key("idle_deadline_ms")
          .raw_value(std::to_string(cv.idle_deadline_ms));
      json.key("write_deadline_ms")
          .raw_value(std::to_string(cv.write_deadline_ms));
      json.end_object();
    }
    json.end_array();
    json.key("timers").begin_object();
    json.key("idle").value(static_cast<std::uint64_t>(snapshot.idle_timers));
    json.key("write").value(static_cast<std::uint64_t>(snapshot.write_timers));
    json.end_object();
    json.key("work_queue").value(
        static_cast<std::uint64_t>(snapshot.work_queue));
    // The recorder structures are safe to read from this thread: the ring
    // is a seqlock, the slow log takes its own mutex.
    if (shard.recorder != nullptr) {
      json.key("recorded").value(shard.recorder->recorded());
      json.begin_array("ring_tail");
      for (const obs::FlightRecord& rec : shard.recorder->tail(32)) {
        flight_record_json(json, rec);
      }
      json.end_array();
      json.begin_array("slow_requests");
      for (const obs::SlowFlight& slow : shard.recorder->slow_log()) {
        flight_record_json(json, slow.record, &slow.detail);
      }
      json.end_array();
      json.begin_array("exemplars");
      for (const obs::FlightExemplar& ex : shard.recorder->exemplars()) {
        json.begin_object();
        json.key("le_ns").value(ex.le_ns);
        json.key("seq").value(ex.seq);
        json.key("total_us").value(static_cast<double>(ex.total_ns) / 1e3);
        json.end_object();
      }
      json.end_array();
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.take();
}

std::string QueryServer::handle_request(std::string_view line) {
  return handle_request(line, nullptr);
}

std::string QueryServer::handle_request(std::string_view line,
                                        RequestFlight* flight) {
  const auto start = std::chrono::steady_clock::now();
  requests_.add(1);
  Verb verb_class = Verb::kOther;
  std::string response;
  std::vector<std::string_view> parts = split_ws(line);
  const std::string_view verb = parts.empty() ? std::string_view() : parts[0];
  // Tokenization is done; everything from here to the response is the
  // engine stage of the flight-recorder breakdown.
  if (flight != nullptr) {
    flight->start = start;
    flight->parse_done = std::chrono::steady_clock::now();
  }
  // Test hook: `SUBLET_FAULTS=serve.engine_delay=<ms>` stretches the
  // engine stage so the slow-request log and INSPECT output can be
  // exercised deterministically (the numeric "errno" carries the delay).
  int delay_ms = 0;
  if (fault::inject("serve.engine_delay", &delay_ms) && delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
  auto parse_query = [](std::string_view text) -> std::optional<Prefix> {
    if (auto prefix = Prefix::parse(text, /*canonicalize=*/true)) {
      return prefix;
    }
    if (auto addr = Ipv4Addr::parse(text)) return Prefix::make(*addr, 32);
    return std::nullopt;
  };
  auto parse_epoch = [](std::string_view text) -> std::optional<std::uint32_t> {
    if (text.empty() || text.size() > 10) return std::nullopt;
    std::uint64_t v = 0;
    for (char c : text) {
      if (c < '0' || c > '9') return std::nullopt;
      v = v * 10 + static_cast<unsigned>(c - '0');
    }
    if (v == 0 || v > 0xFFFFFFFFull) return std::nullopt;
    return static_cast<std::uint32_t>(v);
  };
  if (iequals(verb, "STATS") && parts.size() == 1) {
    // Counters, aggregate and epoch range all come from one view, so a
    // concurrent RELOAD can never pair one epoch range with another
    // epoch's aggregate.
    const std::shared_ptr<const ServingView> view = this->view();
    response = stats(*view).to_json();
    // Splice in the engine-level aggregate + memory breakdown as a
    // trailing "snapshot" object, then the epoch range. The counter
    // fields stay first and unchanged so existing scrapers' substring
    // checks keep passing.
    const std::string snap_json =
        view->latest->engine().snapshot_stats_json();
    response.insert(response.size() - 1, ",\"snapshot\":" + snap_json);
    JsonWriter ej;
    ej.begin_object();
    ej.key("count").value(static_cast<std::uint64_t>(view->epochs.size()));
    if (!view->epochs.empty()) {
      ej.key("first").value(
          static_cast<std::uint64_t>(view->epochs.front()));
      ej.key("last").value(static_cast<std::uint64_t>(view->epochs.back()));
    }
    ej.end_object();
    response.insert(response.size() - 1, ",\"epochs\":" + ej.take());
  } else if (iequals(verb, "METRICS") && parts.size() == 1) {
    // The one multi-line response in the protocol; metrics_text() ends
    // with a "# EOF" line so clients know where the body stops.
    response = metrics_text();
  } else if (iequals(verb, "HEALTH") && parts.size() == 1) {
    response = health_json();
  } else if (iequals(verb, "INSPECT") && parts.size() == 1) {
    response = inspect_json();
  } else if (iequals(verb, "RELOAD") && parts.size() <= 2) {
    // Bare RELOAD refreshes the current source (re-reads the snapshot
    // file, or re-scans the catalog for appended epochs); RELOAD <path>
    // swaps to that snapshot file.
    Expected<std::shared_ptr<const ServingView>> swapped =
        fail("unreachable");
    if (parts.size() == 2) {
      swapped = reload(std::string(parts[1]));
    } else {
      std::lock_guard<std::mutex> reload_lock(reload_mu_);
      swapped = publish(view()->source);
    }
    if (swapped) {
      const ServingView& next = **swapped;
      JsonWriter json;
      json.begin_object();
      json.key("ok").value(true);
      json.key("generation").value(next.latest->generation());
      json.key("records").value(
          static_cast<std::uint64_t>(next.latest->snapshot().record_count()));
      json.key("epochs").value(static_cast<std::uint64_t>(next.epochs.size()));
      json.end_object();
      response = json.take();
    } else {
      response = error_json("reload failed: " + swapped.error().to_string());
    }
  } else if (iequals(verb, "SHUTDOWN") && parts.size() == 1) {
    JsonWriter json;
    json.begin_object();
    json.key("ok").value(true);
    json.key("stopping").value(true);
    json.end_object();
    response = json.take();
    stop_.store(true, std::memory_order_release);
    stop_cv_.notify_all();
    wake_all_shards();
  } else if (iequals(verb, "MLPM") && parts.size() >= 2) {
    verb_class = Verb::kMlpm;
    constexpr std::size_t kMaxBatch = 1024;
    if (parts.size() - 1 > kMaxBatch) {
      malformed_.add(1);
      response = error_json("batch too large (max 1024 addresses)");
    } else {
      // Scratch buffers are thread_local so a connection streaming MLPM
      // lines allocates nothing once they reach steady-state capacity;
      // the batch itself goes through the stride table's prefetched
      // two-pass lookup instead of one dependent-miss walk per address.
      static thread_local std::vector<std::uint32_t> addrs;
      static thread_local std::vector<std::uint32_t> records;
      addrs.clear();
      std::string_view bad;
      for (std::size_t i = 1; i < parts.size(); ++i) {
        auto addr = Ipv4Addr::parse(parts[i]);
        if (!addr) {
          bad = parts[i];
          break;
        }
        addrs.push_back(addr->value());
      }
      if (!bad.empty()) {
        malformed_.add(1);
        response = error_json("bad address '" + std::string(bad) + "'");
      } else {
        const std::shared_ptr<const ServingView> view = this->view();
        const EngineState* state = view->latest.get();
        records.resize(addrs.size());
        state->engine().lookup_batch(addrs, records);
        JsonWriter json;
        json.begin_object();
        json.key("count").value(static_cast<std::uint64_t>(addrs.size()));
        json.begin_array("results");
        for (std::size_t i = 0; i < addrs.size(); ++i) {
          json.begin_object();
          json.key("query").value(Ipv4Addr(addrs[i]).to_string());
          if (records[i] == QueryEngine::kNoRecord) {
            misses_.add(1);
            json.key("found").value(false);
          } else {
            hits_.add(1);
            const snapshot::RecordRow& row =
                state->snapshot().record(records[i]);
            json.key("found").value(true);
            json.key("prefix").value(
                state->snapshot().prefix_of(row).to_string());
            json.key("group").value(leasing::group_name(
                static_cast<leasing::InferenceGroup>(row.group)));
            json.key("leased").value(leasing::is_leased(
                static_cast<leasing::InferenceGroup>(row.group)));
          }
          json.end_object();
        }
        json.end_array();
        json.end_object();
        response = json.take();
      }
    }
  } else if ((iequals(verb, "EXACT") || iequals(verb, "LPM")) &&
             (parts.size() == 2 ||
              (parts.size() == 4 && iequals(parts[2], "AT")))) {
    // `EXACT <q>` / `LPM <q>` answer from the current engine;
    // `... AT <epoch-ts>` answers from the newest catalog epoch at or
    // before that timestamp (docs/TIMETRAVEL.md).
    const bool at_query = parts.size() == 4;
    verb_class = at_query ? Verb::kAt
                          : (iequals(verb, "EXACT") ? Verb::kExact
                                                    : Verb::kLpm);
    std::optional<Prefix> query = parse_query(parts[1]);
    std::optional<std::uint32_t> at;
    if (at_query) at = parse_epoch(parts[3]);
    if (!query) {
      malformed_.add(1);
      response = error_json("bad prefix '" + std::string(parts[1]) + "'");
    } else if (at_query && !at) {
      malformed_.add(1);
      response =
          error_json("bad epoch timestamp '" + std::string(parts[3]) + "'");
    } else {
      // One shared_ptr acquire per request: a concurrent RELOAD swap can
      // retire the old view only after this request drops its reference.
      if (flight != nullptr && at_query) flight->epoch = *at;
      const std::shared_ptr<const ServingView> view = this->view();
      std::shared_ptr<const EngineState> pin;
      auto resolved = resolve(*view, at_query ? *at : 0, pin);
      if (!resolved) {
        malformed_.add(1);
        response = error_json("AT " + std::to_string(*at) + ": " +
                              resolved.error().to_string());
      } else {
        const EngineState* state = *resolved;
        std::optional<std::uint32_t> idx;
        if (iequals(verb, "EXACT")) {
          idx = state->engine().exact(*query);
        } else if (auto hit = state->engine().longest_match(*query)) {
          idx = hit->second;
        }
        if (idx) {
          hits_.add(1);
          response = state->engine().record_json(*idx);
        } else {
          misses_.add(1);
          JsonWriter json;
          json.begin_object();
          json.key("found").value(false);
          json.end_object();
          response = json.take();
        }
        if (at_query) {
          // Tell the client which epoch actually answered (as-of
          // resolution may land before the requested timestamp).
          response.insert(
              response.size() - 1,
              ",\"epoch\":" + std::to_string(state->epoch()));
        }
      }
    }
  } else if (iequals(verb, "HISTORY") && parts.size() == 2) {
    verb_class = Verb::kHistory;
    std::optional<Prefix> query = parse_query(parts[1]);
    if (!query) {
      malformed_.add(1);
      response = error_json("bad prefix '" + std::string(parts[1]) + "'");
    } else {
      response = history_json(*view(), *query);
    }
  } else {
    malformed_.add(1);
    response = error_json(
        "unknown request '" + std::string(verb) +
        "' (want EXACT|LPM|MLPM|STATS|HEALTH|METRICS|INSPECT|RELOAD|"
        "SHUTDOWN|HISTORY, EXACT/LPM accept a trailing AT <epoch-ts>)");
  }
  const auto done = std::chrono::steady_clock::now();
  verb_histogram(verb_class)
      .record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(done - start)
              .count()));
  if (flight != nullptr) {
    flight->done = done;
    flight->verb = static_cast<std::uint8_t>(verb_class);
    flight->error = response.rfind("{\"error\"", 0) == 0;
  }
  return response;
}

StatsSnapshot QueryServer::stats() const { return stats(*view()); }

StatsSnapshot QueryServer::stats(const ServingView& view) const {
  StatsSnapshot out;
  out.requests = requests_.value();
  out.hits = hits_.value();
  out.misses = misses_.value();
  out.malformed = malformed_.value();
  out.shed = closed_shed_.value();
  out.timeouts = closed_idle_.value() + closed_write_.value();
  out.accept_retries = accept_retries_.value();
  out.reloads = reloads_.value();
  out.reload_failures = reload_failures_.value();
  out.generation = view.latest->generation();
  // Merge every per-verb latency series bucket-by-bucket, then apply the
  // registry histogram's exact quantile math: every request is recorded in
  // exactly one verb series, so the merge equals the old single histogram
  // and the p50/p99 doubles stay bit-identical. quantile units are
  // nanoseconds; dividing reproduces the legacy microsecond doubles.
  obs::HistogramSnapshot merged;
  const obs::Histogram* series[] = {&latency_exact_,   &latency_lpm_,
                                    &latency_mlpm_,    &latency_bin_,
                                    &latency_at_,      &latency_history_,
                                    &latency_other_};
  for (const obs::Histogram* histogram : series) {
    const obs::HistogramSnapshot snap = histogram->snapshot();
    for (std::size_t b = 0; b < snap.buckets.size(); ++b) {
      merged.buckets[b] += snap.buckets[b];
    }
    merged.count += snap.count;
    merged.sum += snap.sum;
  }
  out.p50_us = snapshot_quantile(merged, 0.50) / 1000.0;
  out.p99_us = snapshot_quantile(merged, 0.99) / 1000.0;
  return out;
}

std::string QueryServer::metrics_text() const {
  // Gauges are sampled, not event-driven: refresh them at scrape time.
  generation_gauge_.set(
      static_cast<std::int64_t>(view()->latest->generation()));
  active_conns_gauge_.set(
      static_cast<std::int64_t>(active_connections()));
  std::string out = obs::MetricsRegistry::global().prometheus_text();
  out += registry_.prometheus_text();
  out += "# EOF";
  return out;
}

void QueryServer::wait(const std::function<bool()>& predicate) {
  std::unique_lock<std::mutex> lock(stop_mu_);
  while (!stop_requested() && !(predicate && predicate())) {
    stop_cv_.wait_for(lock, std::chrono::milliseconds(kPollSliceMs));
  }
}

void QueryServer::stop() {
  stop_.store(true, std::memory_order_release);
  stop_cv_.notify_all();
  if (stopped_.exchange(true)) return;  // idempotent
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  // Graceful drain: shards flush buffered responses and close; the CV
  // fires the instant the live count reaches zero, so shutdown latency is
  // the actual drain time, not a sleep quantum.
  drain_.store(true, std::memory_order_release);
  wake_all_shards();
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    drain_cv_.wait_for(
        lock, std::chrono::milliseconds(std::max(0, options_.drain_timeout_ms)),
        [this] { return live_conns_.load(std::memory_order_acquire) == 0; });
  }
  force_.store(true, std::memory_order_release);
  wake_all_shards();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  for (auto& shard : shards_) {
    // Accepted fds raced into an inbox after its shard exited are closed
    // here so nothing leaks (the accept thread is already joined).
    std::lock_guard<std::mutex> lock(shard->inbox_mu);
    for (int fd : shard->inbox) {
      ::close(fd);
      closed_drain_.add(1);
      live_conns_.fetch_sub(1, std::memory_order_acq_rel);
    }
    shard->inbox.clear();
    if (shard->epoll_fd >= 0) {
      ::close(shard->epoll_fd);
      shard->epoll_fd = -1;
    }
    if (shard->event_fd >= 0) {
      ::close(shard->event_fd);
      shard->event_fd = -1;
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace sublet::serve
