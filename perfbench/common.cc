#include "common.h"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "serve/client.h"

namespace pb {

void Samples::merge(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::quantile(double q) {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  // Nearest rank: the smallest value with at least q of the samples at or
  // below it.
  auto rank = static_cast<std::size_t>(std::ceil(q * values_.size()));
  rank = std::clamp<std::size_t>(rank, 1, values_.size());
  return values_[rank - 1];
}

double Samples::max() { return quantile(1.0); }

double Samples::tail(double* which) {
  static constexpr double kTails[] = {0.9999, 0.999, 0.99, 0.9, 0.5};
  for (double q : kTails) {
    if ((1.0 - q) * values_.size() >= 10.0) {
      if (which) *which = q * 100;
      return quantile(q);
    }
  }
  if (which) *which = 100;
  return max();
}

double median_of(std::vector<double> values) {
  Samples s;
  for (double v : values) s.add(v);
  return s.median();
}

void Windowed::add(double at_s, double v) {
  all_.add(v);
  const auto w = static_cast<std::size_t>(std::max(0.0, at_s / kWindowS));
  if (w >= windows_.size()) windows_.resize(w + 1);
  windows_[w].add(v);
}

void Windowed::merge(const Windowed& other) {
  all_.merge(other.all_);
  if (other.windows_.size() > windows_.size()) {
    windows_.resize(other.windows_.size());
  }
  for (std::size_t i = 0; i < other.windows_.size(); ++i) {
    windows_[i].merge(other.windows_[i]);
  }
}

double Windowed::window_median(double q, std::size_t min_count) {
  std::vector<double> per_window;
  for (Samples& w : windows_) {
    if (w.count() >= min_count) per_window.push_back(w.quantile(q));
  }
  return median_of(std::move(per_window));
}

Tracer::Scope::Scope(Tracer* tracer, std::string name) : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  id_ = static_cast<int>(tracer_->spans_.size());
  saved_ = tracer_->current_;
  tracer_->spans_.push_back(Span{std::move(name), tracer_->now(), 0, saved_});
  tracer_->current_ = id_;
}

Tracer::Scope::~Scope() {
  if (id_ < 0) return;
  tracer_->spans_[static_cast<std::size_t>(id_)].end = tracer_->now();
  tracer_->current_ = saved_;
}

std::vector<std::pair<std::string, double>> Tracer::self_times() const {
  // Spans nest strictly (one thread, scoped), so a span's children cover
  // disjoint parts of it and self = duration - sum(children).
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
  }
  std::vector<std::pair<std::string, double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto it = std::find_if(out.begin(), out.end(), [&](const auto& row) {
      return row.first == spans_[i].name;
    });
    if (it == out.end()) {
      out.emplace_back(spans_[i].name, self[i]);
    } else {
      it->second += self[i];
    }
  }
  return out;
}

double Tracer::total(const std::string& name) const {
  double sum = 0;
  for (const Span& s : spans_) {
    if (s.name == name) sum += s.end - s.start;
  }
  return sum;
}

double Tracer::top_level_total() const {
  double sum = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0) sum += s.end - s.start;
  }
  return sum;
}

void Tracer::write_jsonl(const std::string& path,
                         const std::string& section) const {
  std::ofstream out(path, std::ios::app);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"section\":\"" << section << "\",\"id\":" << i
        << ",\"name\":\"" << s.name << "\",\"start_s\":" << fmt(s.start, 9)
        << ",\"end_s\":" << fmt(s.end, 9) << ",\"parent\":" << s.parent
        << "}\n";
  }
}

namespace {

void redirect_output(const std::string& log_path) {
  int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd >= 0) {
    ::dup2(fd, STDOUT_FILENO);
    ::dup2(fd, STDERR_FILENO);
    ::close(fd);
  }
}

std::vector<char*> c_argv(const std::vector<std::string>& argv) {
  std::vector<char*> out;
  for (const std::string& a : argv) out.push_back(const_cast<char*>(a.c_str()));
  out.push_back(nullptr);
  return out;
}

}  // namespace

void pin_to_half(int half) {
  const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
  if (cpus < 4) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (long c = half * cpus / 2; c < (half + 1) * cpus / 2; ++c) {
    CPU_SET(static_cast<int>(c), &set);
  }
  ::sched_setaffinity(0, sizeof set, &set);
}

void settle() { ::sync(); }

int run_child(const std::vector<std::string>& argv, const std::string& log_path,
              double* wall_s, double* peak_rss_mb) {
  std::vector<char*> args = c_argv(argv);
  const auto t0 = Clock::now();
  pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    redirect_output(log_path);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  int status = 0;
  struct rusage usage {};
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  if (wall_s) *wall_s = since(t0);
  if (peak_rss_mb) *peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

bool ServerProcess::start(const std::vector<std::string>& argv,
                          const std::string& dir) {
  const std::string port_file = dir + "/server.port";
  std::remove(port_file.c_str());
  std::vector<std::string> full = argv;
  full.insert(full.end(), {"--port", "0", "--port-file", port_file});
  std::vector<char*> args = c_argv(full);
  pid_ = ::fork();
  if (pid_ < 0) return false;
  if (pid_ == 0) {
    // A benchmark that dies mid-run must not leave its server behind.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    pin_to_half(0);
    redirect_output(dir + "/server.log");
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (Clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    std::string text = read_file(port_file);
    if (!text.empty() && text.back() == '\n') {
      port_ = static_cast<std::uint16_t>(std::stoul(text));
      auto client = sublet::serve::QueryClient::connect("127.0.0.1", port_);
      if (client && client->request("HEALTH")) return true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  stop();
  return false;
}

void ServerProcess::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (Clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
}

double ServerProcess::cpu_seconds() const {
  // Fields 14 and 15 of /proc/<pid>/stat: user and system clock ticks of
  // every thread. The command name (field 2) may hold spaces, so count
  // from the closing parenthesis.
  const std::string stat = read_file("/proc/" + std::to_string(pid_) + "/stat");
  const auto close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream in(stat.substr(close + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && in >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ServerProcess::peak_rss_mb() const {
  std::istringstream in(read_file("/proc/" + std::to_string(pid_) + "/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::uint64_t file_size(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<std::uint64_t>(in.tellg()) : 0;
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void Result::fail(const std::string& why) {
  correct = false;
  if (report.size() < 200) note("CHECK FAILED: " + why);
}

std::string fmt(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

}  // namespace pb
