// Shared pieces of the benchmark: clocks, exact quantiles, the
// span tracer, child processes, the forked server, and the result record
// every workload fills in.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Every sample kept; quantiles are exact order statistics (nearest rank).
class Samples {
 public:
  void add(double v) { values_.push_back(v); sorted_ = false; }
  void merge(const Samples& other);
  std::size_t count() const { return values_.size(); }
  double quantile(double q);
  double median() { return quantile(0.5); }
  double max();
  /// The highest of p50/p90/p99/p99.9/p99.99 with at least ten samples
  /// beyond it; `which` receives the percentile (e.g. 99.9).
  double tail(double* which);

 private:
  std::vector<double> values_;
  bool sorted_ = true;
};

double median_of(std::vector<double> values);

/// Samples also bucketed by when they happened, so a tail can be taken per
/// window: a host stall then spoils one window instead of a whole phase.
class Windowed {
 public:
  static constexpr double kWindowS = 0.1;

  /// `at_s`: seconds since the phase started.
  void add(double at_s, double v);
  void merge(const Windowed& other);
  Samples& all() { return all_; }
  /// Median, over windows with at least `min_count` samples, of each
  /// window's `q` quantile (0 when no window qualifies).
  double window_median(double q, std::size_t min_count = 100);

 private:
  Samples all_;
  std::vector<Samples> windows_;
};

/// In-memory span recorder. Spans nest by scope; a disabled tracer keeps
/// the same call structure but records nothing (the untraced pass).
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;  ///< seconds since the tracer's origin
    double end = 0;
    int parent = -1;
  };
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int id_ = -1;
    int saved_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  Scope span(std::string name) { return Scope(this, std::move(name)); }

  /// Self time (span minus the part of it its children cover) summed per
  /// span name, in seconds, in first-seen order.
  std::vector<std::pair<std::string, double>> self_times() const;
  /// Total duration per span name, in seconds.
  double total(const std::string& name) const;
  /// Sum of top-level span durations.
  double top_level_total() const;
  /// Write every span as one JSON object per line.
  void write_jsonl(const std::string& path, const std::string& section) const;

 private:
  double now() const { return since(origin_); }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
};

/// Run `argv` to completion with stdout/stderr sent to `log_path`.
/// Returns the exit status (-1 if it did not exit normally) and fills the
/// wall time and the child's peak RSS.
int run_child(const std::vector<std::string>& argv, const std::string& log_path,
              double* wall_s, double* peak_rss_mb);

/// On hosts with at least four CPUs, restrict the calling process to the
/// first (half = 0) or second (half = 1) half of them. Forked servers take
/// the first half and the serving workloads' generators the second, so the
/// two never trade places between runs.
void pin_to_half(int half);

/// Flush dirty pages (the generated worlds, earlier runs' outputs) so the
/// kernel does not write them back in the middle of a measurement.
void settle();

/// A forked `sublet serve` process.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Fork the server with `--port 0 --port-file`, then wait until it
  /// answers HEALTH. Returns false (and stops the child) on failure.
  bool start(const std::vector<std::string>& argv, const std::string& dir);
  /// SIGTERM, then reap; SIGKILL after a grace period.
  void stop();
  std::uint16_t port() const { return port_; }
  /// Peak resident set size so far (VmHWM), in MB.
  double peak_rss_mb() const;
  /// CPU time (user + system, all threads) used so far, in seconds.
  double cpu_seconds() const;

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// Contents of a file, or empty if unreadable.
std::string read_file(const std::string& path);
std::uint64_t file_size(const std::string& path);
/// FNV-1a 64 over bytes.
std::uint64_t fnv1a(std::string_view bytes);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload run produces: the report lines printed above the final
/// JSON, and the JSON's fields.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< failed plus wrong operations
  std::vector<Metric> metrics;
  std::vector<std::string> report;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { report.push_back(std::move(line)); }
  /// Record a failed correctness check.
  void fail(const std::string& why);
};

/// Settings shared by every workload.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work;    ///< scratch root inside the checkout
  std::string sublet;  ///< path of the built CLI
};

/// Format helper: fixed digits.
std::string fmt(double v, int digits = 3);

}  // namespace pb
