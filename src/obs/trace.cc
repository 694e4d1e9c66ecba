#include "obs/trace.h"

#include <time.h>

#include <fstream>

#include "util/jsonw.h"

namespace sublet::obs {

namespace {

/// Innermost open span on this thread; children read it to find their
/// parent, ScopedSpan saves/restores it around its lifetime.
thread_local SpanId t_current_span = 0;

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

SpanId Tracer::current() { return t_current_span; }

void Tracer::commit(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(record));
}

std::uint32_t Tracer::thread_ordinal() {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, fresh] = thread_ordinals_.try_emplace(
      std::this_thread::get_id(),
      static_cast<std::uint32_t>(thread_ordinals_.size()));
  (void)fresh;
  return it->second;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

std::string Tracer::chrome_trace_json() const {
  std::vector<SpanRecord> spans = this->spans();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& span : spans) {
    if (!first) out += ',';
    first = false;
    JsonWriter event;
    event.begin_object();
    event.key("name").value(span.name);
    event.key("ph").value("X");
    event.key("pid").value(std::uint64_t{1});
    event.key("tid").value(static_cast<std::uint64_t>(span.tid));
    event.key("ts").value(span.start_us);
    event.key("dur").value(span.wall_ns / 1000);
    event.key("args");
    event.begin_object();
    event.key("id").value(span.id);
    event.key("parent").value(span.parent);
    event.key("cpu_ns").value(span.cpu_ns);
    if (span.bytes != 0) event.key("bytes").value(span.bytes);
    if (span.records != 0) event.key("records").value(span.records);
    event.end_object();
    event.end_object();
    out += event.take();
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << chrome_trace_json() << '\n';
  return static_cast<bool>(out.flush());
}

ScopedSpan::ScopedSpan(std::string_view name) {
  begin(name, t_current_span, true);
}

ScopedSpan::ScopedSpan(std::string_view name, SpanId parent) {
  begin(name, parent, true);
}

ScopedSpan::ScopedSpan(std::string_view name, SpanId parent, Detached) {
  begin(name, parent, false);
}

void ScopedSpan::begin(std::string_view name, SpanId parent, bool current) {
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled()) return;
  id_ = tracer.next_id();
  parent_ = parent;
  name_ = name;
  if (current) {
    saved_current_ = t_current_span;
    restore_current_ = true;
    t_current_span = id_;
    cpu_start_ns_ = thread_cpu_ns();
  }
  start_ = std::chrono::steady_clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  auto end = std::chrono::steady_clock::now();
  std::uint64_t cpu_end_ns = restore_current_ ? thread_cpu_ns() : 0;
  if (restore_current_) t_current_span = saved_current_;
  Tracer& tracer = Tracer::global();
  SpanRecord record;
  record.id = id_;
  record.parent = parent_;
  record.name = std::move(name_);
  record.tid = tracer.thread_ordinal();
  record.start_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(start_ -
                                                            tracer.epoch_)
          .count());
  record.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
          .count());
  record.cpu_ns =
      cpu_end_ns >= cpu_start_ns_ ? cpu_end_ns - cpu_start_ns_ : 0;
  record.bytes = bytes_;
  record.records = records_;
  tracer.commit(std::move(record));
}

}  // namespace sublet::obs
