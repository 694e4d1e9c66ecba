// Pipeline stage tracing (docs/OBSERVABILITY.md).
//
// RAII spans measure wall time, thread CPU time, and optional bytes/records
// throughput for each pipeline stage. The tracer is disabled by default;
// when disabled a ScopedSpan construction is one relaxed atomic load and no
// allocation, so instrumentation can stay in place permanently.
//
//   obs::ScopedSpan span("whois.parse");
//   span.add_bytes(text.size());
//   span.add_records(records);
//
// Spans on the same thread nest automatically (a thread-local tracks the
// innermost open span). Work fanned out to a thread pool nests explicitly:
// capture Tracer::current() before dispatch and hand it to the chunk span —
//
//   obs::SpanId parent = obs::Tracer::current();
//   pool.run([parent, ...] {
//     obs::ScopedSpan chunk("whois.parse.chunk", parent);
//     ...
//   });
//
// A stage that only submits tasks and is finished by whichever task ends
// last opens a detached span: it never becomes a thread's current span, so
// the finishing task may end it on its own thread.
//
// Completed spans accumulate in Tracer::global(); write_chrome_trace()
// renders them as a Chrome trace-viewer file (chrome://tracing, Perfetto).
// `sublet --trace-json out.json <command>` wires this up end to end.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

namespace sublet::obs {

/// Identifies a completed or open span; 0 means "no span".
using SpanId = std::uint64_t;

/// A finished span as stored by the tracer.
struct SpanRecord {
  SpanId id = 0;
  SpanId parent = 0;  ///< 0 = top-level
  std::string name;
  std::uint32_t tid = 0;      ///< small per-thread ordinal, not an OS tid
  std::uint64_t start_us = 0; ///< microseconds since tracer epoch
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;   ///< CLOCK_THREAD_CPUTIME_ID delta
  std::uint64_t bytes = 0;
  std::uint64_t records = 0;
};

class ScopedSpan;

class Tracer {
 public:
  static Tracer& global();

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// The calling thread's innermost open span (0 if none). Capture this
  /// before fanning out to a pool so worker spans can name their parent.
  static SpanId current();

  /// Completed spans, in completion order.
  std::vector<SpanRecord> spans() const;
  std::size_t span_count() const;
  void clear();

  /// Chrome trace-viewer JSON ({"traceEvents":[...]}, "X" complete events,
  /// timestamps/durations in microseconds).
  std::string chrome_trace_json() const;
  bool write_chrome_trace(const std::string& path) const;

 private:
  friend class ScopedSpan;

  SpanId next_id() {
    return next_.fetch_add(1, std::memory_order_relaxed);
  }
  void commit(SpanRecord record);
  std::uint32_t thread_ordinal();

  std::atomic<bool> enabled_{false};
  std::atomic<SpanId> next_{1};
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::unordered_map<std::thread::id, std::uint32_t> thread_ordinals_;
};

/// RAII span on Tracer::global(). Inert (and free) when tracing is off.
class ScopedSpan {
 public:
  /// Nested under the calling thread's current span, if any.
  explicit ScopedSpan(std::string_view name);
  /// Nested under an explicit parent (cross-thread nesting).
  ScopedSpan(std::string_view name, SpanId parent);
  /// Nested under `parent`, and never the calling thread's current span,
  /// so it may be destroyed on any thread. Its children name id() as their
  /// parent. cpu_ns stays 0: the work runs in those children, on their
  /// own threads.
  struct Detached {};
  ScopedSpan(std::string_view name, SpanId parent, Detached);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// 0 when tracing was disabled at construction.
  SpanId id() const { return id_; }
  bool active() const { return id_ != 0; }

  void add_bytes(std::uint64_t n) { bytes_ += n; }
  void add_records(std::uint64_t n) { records_ += n; }

 private:
  void begin(std::string_view name, SpanId parent, bool current);

  SpanId id_ = 0;
  SpanId parent_ = 0;
  SpanId saved_current_ = 0;
  bool restore_current_ = false;  ///< false for a detached span
  std::string name_;
  std::chrono::steady_clock::time_point start_{};
  std::uint64_t cpu_start_ns_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t records_ = 0;
};

}  // namespace sublet::obs
