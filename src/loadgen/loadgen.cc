#include "loadgen/loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "catalog/catalog.h"
#include "leasing/report.h"
#include "loadgen/scenario.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/faultinject.h"
#include "util/jsonr.h"
#include "util/rng.h"
#include "util/strings.h"

namespace sublet::loadgen {

namespace {

namespace fs = std::filesystem;
using steady_clock = std::chrono::steady_clock;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void fnv1a(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

/// One precomputed request. The whole schedule is a pure function of the
/// seed; payloads are derived deterministically from (record, salt) at
/// send time, so hashing these three fields pins the entire run.
struct Op {
  LoadVerb verb = LoadVerb::kLpm;
  std::uint32_t record = 0;  ///< Zipf-sampled record index (initial epoch)
  std::uint32_t salt = 0;    ///< per-op payload/diversity seed
  std::uint64_t issue_us = 0;
};

struct VerbWeight {
  LoadVerb verb;
  int weight;
};
/// The replayed mix: batch-heavy like a production resolver feed, with
/// every verb exercised. Weights sum to 100.
constexpr VerbWeight kMix[] = {
    {LoadVerb::kExact, 10},     {LoadVerb::kLpm, 18},
    {LoadVerb::kMlpm, 5},       {LoadVerb::kLpmBatch, 30},
    {LoadVerb::kExactBatch, 10}, {LoadVerb::kAt, 12},
    {LoadVerb::kHistory, 5},    {LoadVerb::kStats, 5},
    {LoadVerb::kMetrics, 5},
};

LoadVerb pick_verb(Rng& rng) {
  int roll = static_cast<int>(rng.next_below(100));
  for (const VerbWeight& entry : kMix) {
    roll -= entry.weight;
    if (roll < 0) return entry.verb;
  }
  return LoadVerb::kLpm;
}

/// Everything the workers and the chaos thread share.
struct RunState {
  const LoadOptions* options = nullptr;
  std::string catalog_dir;  ///< the run's mutable clone
  std::string host = "127.0.0.1";
  std::atomic<std::uint32_t> port{0};
  steady_clock::time_point t0;

  std::unique_ptr<catalog::Catalog> refcat;  ///< driver's reference view
  std::shared_ptr<const serve::EngineState> base;  ///< initial latest epoch
  std::vector<std::uint32_t> pinned_epochs;  ///< epochs at schedule time
  /// Plain EXACT/LPM spot checks compare against `base`, which is only
  /// valid while no chaos event can move the served latest epoch.
  bool allow_unpinned_checks = false;

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total_requests{0};
  std::atomic<std::uint64_t> total_lookups{0};
  std::atomic<std::uint64_t> spot_checks{0};
  std::atomic<std::uint64_t> wrong_answers{0};
  std::atomic<std::uint64_t> injected_errors{0};
  std::atomic<std::uint64_t> uninjected_errors{0};
  std::array<std::atomic<std::uint64_t>, kVerbCount> completed{};
  std::array<std::atomic<std::uint64_t>, kVerbCount> errors{};
  std::array<obs::Histogram, kVerbCount> latency;

  /// Chaos-declared [start_ms, end_ms] spans where client-visible errors
  /// are expected (fault storms, server kill + restart). An error whose
  /// [issue, failure] interval intersects any window counts as injected.
  std::mutex window_mu;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> windows;

  std::mutex epoch_mu;
  std::unordered_map<std::uint32_t,
                     std::shared_ptr<const serve::EngineState>>
      epoch_cache;

  std::uint64_t now_ms() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            steady_clock::now() - t0)
            .count());
  }

  void add_window(std::uint64_t from_ms, std::uint64_t to_ms) {
    std::lock_guard<std::mutex> lock(window_mu);
    windows.emplace_back(from_ms, to_ms);
  }

  bool is_injected(std::uint64_t issue_ms, std::uint64_t error_ms) {
    std::lock_guard<std::mutex> lock(window_mu);
    for (const auto& [from, to] : windows) {
      if (issue_ms <= to && error_ms >= from) return true;
    }
    return false;
  }

  void count_error(LoadVerb verb, std::uint64_t issue_ms) {
    errors[static_cast<std::size_t>(verb)].fetch_add(
        1, std::memory_order_relaxed);
    if (is_injected(issue_ms, now_ms())) {
      injected_errors.fetch_add(1, std::memory_order_relaxed);
    } else {
      uninjected_errors.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Reference state for a pinned epoch, memoized (states are immutable).
  std::shared_ptr<const serve::EngineState> epoch_state(std::uint32_t ts) {
    {
      std::lock_guard<std::mutex> lock(epoch_mu);
      auto it = epoch_cache.find(ts);
      if (it != epoch_cache.end()) return it->second;
    }
    auto state = refcat->epoch_at(ts);
    if (!state) return nullptr;
    std::lock_guard<std::mutex> lock(epoch_mu);
    return epoch_cache.emplace(ts, std::move(*state)).first->second;
  }
};

// ---- schedule -----------------------------------------------------------

std::vector<std::vector<Op>> build_schedules(const LoadOptions& options,
                                             std::uint64_t records,
                                             std::uint64_t* digest,
                                             std::array<std::uint64_t,
                                                        kVerbCount>* planned) {
  const unsigned workers = std::max(options.workers, 1u);
  const double per_worker_qps = std::max(options.qps, 1.0) / workers;
  const auto ops_per_worker = static_cast<std::uint64_t>(
      static_cast<double>(options.duration_ms) * per_worker_qps / 1000.0);
  const double period_us = 1e6 / per_worker_qps;
  *digest = kFnvOffset;
  std::vector<std::vector<Op>> schedules(workers);
  for (unsigned w = 0; w < workers; ++w) {
    Rng rng = Rng(options.seed).fork(0x50414b00ull + w);  // "soak" stream w
    schedules[w].reserve(ops_per_worker);
    for (std::uint64_t i = 0; i < ops_per_worker; ++i) {
      Op op;
      op.verb = pick_verb(rng);
      op.record = records == 0
                      ? 0
                      : static_cast<std::uint32_t>(
                            rng.next_zipf(records, options.zipf_alpha));
      op.salt = static_cast<std::uint32_t>(rng.next_u64());
      op.issue_us = static_cast<std::uint64_t>(
          static_cast<double>(i) * period_us);
      const auto verb_byte = static_cast<unsigned char>(op.verb);
      fnv1a(*digest, &verb_byte, 1);
      fnv1a(*digest, &op.record, sizeof(op.record));
      fnv1a(*digest, &op.salt, sizeof(op.salt));
      ++(*planned)[static_cast<std::size_t>(op.verb)];
      schedules[w].push_back(op);
    }
  }
  return schedules;
}

// ---- workers ------------------------------------------------------------

bool response_is_error(const std::string& body) {
  return body.rfind("{\"error\"", 0) == 0;
}

struct Worker {
  RunState* st;
  const std::vector<Op>* ops;
  unsigned id = 0;
  std::optional<serve::QueryClient> client;

  serve::ClientTimeouts timeouts() const {
    return {.connect_ms = 3000, .io_ms = st->options->io_timeout_ms};
  }

  bool ensure_client(std::uint64_t issue_ms) {
    if (client) return true;
    for (int attempt = 0; attempt < 5 && !st->stop.load(); ++attempt) {
      auto c = serve::QueryClient::connect(
          st->host, static_cast<std::uint16_t>(st->port.load()), timeouts());
      if (c) {
        client.emplace(std::move(*c));
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(25 << attempt));
    }
    (void)issue_ms;
    return false;
  }

  void run() {
    for (const Op& op : *ops) {
      if (st->stop.load(std::memory_order_relaxed)) break;
      const auto due = st->t0 + std::chrono::microseconds(op.issue_us);
      if (steady_clock::now() < due) std::this_thread::sleep_until(due);
      const std::uint64_t issue_ms = st->now_ms();
      if (!ensure_client(issue_ms)) {
        st->total_requests.fetch_add(1, std::memory_order_relaxed);
        st->count_error(op.verb, issue_ms);
        continue;
      }
      execute(op, issue_ms);
    }
  }

  void execute(const Op& op, std::uint64_t issue_ms);

  void finish(const Op& op, std::uint64_t issue_ms,
              steady_clock::time_point started, bool ok, bool transport) {
    const std::size_t v = static_cast<std::size_t>(op.verb);
    if (ok) {
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
          steady_clock::now() - started);
      st->latency[v].record(static_cast<std::uint64_t>(us.count()));
      st->completed[v].fetch_add(1, std::memory_order_relaxed);
    } else {
      st->count_error(op.verb, issue_ms);
      if (transport) client.reset();  // reconnect on the next op
    }
  }
};

void Worker::execute(const Op& op, std::uint64_t issue_ms) {
  const serve::QueryEngine& base = st->base->engine();
  const serve::QueryEngine::Brief brief = base.brief(op.record);
  const auto prefix = Prefix::make(Ipv4Addr(brief.prefix_addr),
                                   brief.prefix_len);
  const std::uint64_t prefix_size = prefix ? prefix->size() : 1;
  Rng rng(op.salt * 0x9E3779B97F4A7C15ull + 0x7359ull);
  const bool spot = st->options->spot_check_every != 0 &&
                    op.salt % st->options->spot_check_every == 0;
  const std::uint32_t pinned =
      st->pinned_epochs.empty()
          ? 0
          : st->pinned_epochs[op.salt % st->pinned_epochs.size()];
  const auto started = steady_clock::now();
  st->total_requests.fetch_add(1, std::memory_order_relaxed);

  auto check_text_lookup = [&](const std::string& body,
                               const serve::QueryEngine& ref,
                               const Prefix& query, bool exact_verb) {
    st->spot_checks.fetch_add(1, std::memory_order_relaxed);
    std::optional<Prefix> expect;
    if (exact_verb) {
      if (ref.exact(query)) expect = query;
    } else if (auto hit = ref.longest_match(query)) {
      expect = hit->first;
    }
    const bool good =
        expect ? body.find("\"prefix\":\"" + expect->to_string() + "\"") !=
                     std::string::npos
               : body.find("\"found\":false") != std::string::npos;
    if (!good) st->wrong_answers.fetch_add(1, std::memory_order_relaxed);
  };

  switch (op.verb) {
    case LoadVerb::kExact: {
      const std::string line = "EXACT " + prefix->to_string();
      auto resp = client->request(line);
      const bool ok = resp.has_value() && !response_is_error(*resp);
      if (ok && spot && st->allow_unpinned_checks) {
        check_text_lookup(*resp, base, *prefix, /*exact_verb=*/true);
      }
      finish(op, issue_ms, started, ok, !resp.has_value());
      break;
    }
    case LoadVerb::kLpm:
    case LoadVerb::kAt: {
      const auto addr = static_cast<std::uint32_t>(
          brief.prefix_addr + rng.next_below(prefix_size));
      const auto query = Prefix::make(Ipv4Addr(addr), 32);
      std::string line = "LPM " + query->to_string();
      const bool at_verb = op.verb == LoadVerb::kAt;
      if (at_verb) line += " AT " + std::to_string(pinned);
      auto resp = client->request(line);
      const bool ok = resp.has_value() && !response_is_error(*resp);
      if (ok && spot) {
        if (at_verb) {
          if (auto ref = st->epoch_state(pinned)) {
            check_text_lookup(*resp, ref->engine(), *query, false);
          }
        } else if (st->allow_unpinned_checks) {
          check_text_lookup(*resp, base, *query, false);
        }
      }
      finish(op, issue_ms, started, ok, !resp.has_value());
      break;
    }
    case LoadVerb::kMlpm: {
      std::string line = "MLPM";
      for (int j = 0; j < 8; ++j) {
        const auto addr =
            j % 2 == 0
                ? static_cast<std::uint32_t>(brief.prefix_addr +
                                             rng.next_below(prefix_size))
                : static_cast<std::uint32_t>(rng.next_u64());
        line += ' ';
        line += Ipv4Addr(addr).to_string();
      }
      auto resp = client->request(line);
      const bool ok = resp.has_value() && !response_is_error(*resp);
      if (ok) st->total_lookups.fetch_add(8, std::memory_order_relaxed);
      finish(op, issue_ms, started, ok, !resp.has_value());
      break;
    }
    case LoadVerb::kLpmBatch: {
      const std::size_t depth = std::max<std::size_t>(
          st->options->pipeline_depth, 1);
      const std::size_t per = std::max<std::size_t>(st->options->batch_size,
                                                    1);
      std::vector<std::vector<std::uint32_t>> batches(depth);
      for (auto& batch : batches) {
        batch.reserve(per);
        for (std::size_t j = 0; j < per; ++j) {
          batch.push_back(
              rng.chance(0.75)
                  ? static_cast<std::uint32_t>(brief.prefix_addr +
                                               rng.next_below(prefix_size))
                  : static_cast<std::uint32_t>(rng.next_u64()));
        }
      }
      const std::uint32_t epoch = spot ? pinned : 0;
      auto resp = client->pipeline_binary(batches, epoch);
      bool ok = resp.has_value();
      if (ok) {
        for (const serve::BinResponse& frame : *resp) {
          if (frame.status != 0) ok = false;
        }
      }
      if (ok) {
        st->total_requests.fetch_add(depth - 1, std::memory_order_relaxed);
        st->total_lookups.fetch_add(depth * per, std::memory_order_relaxed);
        if (spot && epoch != 0) {
          if (auto ref = st->epoch_state(epoch)) {
            st->spot_checks.fetch_add(1, std::memory_order_relaxed);
            std::vector<std::uint32_t> out(per);
            ref->engine().lookup_batch(batches[0], out);
            const std::vector<serve::BinResult>& got = (*resp)[0].results;
            bool good = got.size() == per;
            for (std::size_t j = 0; good && j < per; ++j) {
              if (out[j] == serve::QueryEngine::kNoRecord) {
                good = !got[j].found;
              } else {
                const auto want = ref->engine().brief(out[j]);
                good = got[j].found &&
                       got[j].prefix_addr == want.prefix_addr &&
                       got[j].prefix_len == want.prefix_len &&
                       got[j].group == want.group &&
                       got[j].leased == want.leased;
              }
            }
            if (!good) {
              st->wrong_answers.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      }
      finish(op, issue_ms, started, ok, !resp.has_value());
      break;
    }
    case LoadVerb::kExactBatch: {
      const std::size_t per =
          std::min<std::size_t>(std::max<std::size_t>(
                                    st->options->batch_size, 1),
                                64);
      std::vector<serve::QueryClient::ExactQuery> queries(per);
      for (std::size_t j = 0; j < per; ++j) {
        if (j % 2 == 0) {
          queries[j] = {brief.prefix_addr, brief.prefix_len};
        } else {
          const auto other = base.brief(static_cast<std::uint32_t>(
              rng.next_below(std::max<std::uint64_t>(base.size(), 1))));
          queries[j] = {other.prefix_addr, other.prefix_len};
        }
      }
      const std::uint32_t epoch = spot ? pinned : 0;
      auto resp = client->request_exact_batch(queries, epoch);
      const bool ok = resp.has_value() && resp->status == 0;
      if (ok) {
        st->total_lookups.fetch_add(per, std::memory_order_relaxed);
        if (spot && epoch != 0) {
          if (auto ref = st->epoch_state(epoch)) {
            st->spot_checks.fetch_add(1, std::memory_order_relaxed);
            bool good = resp->results.size() == per;
            for (std::size_t j = 0; good && j < per; ++j) {
              const auto q = Prefix::make(Ipv4Addr(queries[j].addr),
                                          queries[j].len);
              const auto idx = q ? ref->engine().exact(*q) : std::nullopt;
              good = idx.has_value() == resp->results[j].found;
            }
            if (!good) {
              st->wrong_answers.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      }
      finish(op, issue_ms, started, ok, !resp.has_value());
      break;
    }
    case LoadVerb::kHistory: {
      auto resp = client->request("HISTORY " + prefix->to_string());
      const bool ok = resp.has_value() && !response_is_error(*resp) &&
                      resp->find("\"query\"") != std::string::npos;
      finish(op, issue_ms, started, ok, !resp.has_value());
      break;
    }
    case LoadVerb::kStats: {
      auto resp = client->request("STATS");
      const bool ok = resp.has_value() && !response_is_error(*resp);
      finish(op, issue_ms, started, ok, !resp.has_value());
      break;
    }
    case LoadVerb::kMetrics: {
      auto resp = client->request_multiline("METRICS");
      const bool ok = resp.has_value() &&
                      resp->find("# EOF") != std::string::npos;
      finish(op, issue_ms, started, ok, !resp.has_value());
      break;
    }
  }
}

// ---- forked server ------------------------------------------------------

struct ForkedServer {
  std::vector<std::string> argv_base;
  std::string catalog_dir;
  std::string port_file;
  std::string log_path;  ///< child stdout/stderr land here, not on ours
  unsigned shards = 0;
  std::size_t max_outbuf_bytes = 0;
  std::uint64_t slow_threshold_us = 0;  ///< 0 keeps the server default
  pid_t pid = -1;

  Expected<std::uint16_t> launch() {
    std::error_code ec;
    fs::remove(port_file, ec);
    std::vector<std::string> argv = argv_base;
    argv.insert(argv.end(), {"--catalog", catalog_dir, "--port", "0",
                             "--port-file", port_file, "--max-conns",
                             "1024"});
    if (shards != 0) {
      argv.insert(argv.end(), {"--shards", std::to_string(shards)});
    }
    if (max_outbuf_bytes != 0) {
      argv.insert(argv.end(),
                  {"--max-outbuf-bytes", std::to_string(max_outbuf_bytes)});
    }
    if (slow_threshold_us != 0) {
      argv.insert(argv.end(),
                  {"--slow-threshold-us", std::to_string(slow_threshold_us)});
    }
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (std::string& arg : argv) cargv.push_back(arg.data());
    cargv.push_back(nullptr);
    pid = ::fork();
    if (pid < 0) return fail("fork: " + std::string(std::strerror(errno)));
    if (pid == 0) {
      if (!log_path.empty()) {
        const int log_fd = ::open(log_path.c_str(),
                                  O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (log_fd >= 0) {
          ::dup2(log_fd, STDOUT_FILENO);
          ::dup2(log_fd, STDERR_FILENO);
          ::close(log_fd);
        }
      }
      ::execv(cargv[0], cargv.data());
      ::_exit(127);
    }
    const auto deadline = steady_clock::now() + std::chrono::seconds(30);
    while (steady_clock::now() < deadline) {
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        pid = -1;
        return fail("forked server exited during startup");
      }
      std::ifstream in(port_file);
      unsigned port = 0;
      if (in >> port && port != 0 && port <= 65535) {
        return static_cast<std::uint16_t>(port);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    kill9();
    reap();
    return fail("forked server did not write " + port_file + " in time");
  }

  void kill9() {
    if (pid > 0) ::kill(pid, SIGKILL);
  }
  void reap() {
    if (pid > 0) {
      int status = 0;
      ::waitpid(pid, &status, 0);
      pid = -1;
    }
  }
  void shutdown() {
    if (pid > 0) {
      ::kill(pid, SIGTERM);
      reap();
    }
  }
};

// ---- chaos --------------------------------------------------------------

struct Chaos {
  RunState* st;
  std::vector<ChaosEvent> events;
  std::vector<PendingEpoch> pending;
  std::size_t next_pending = 0;
  ForkedServer* forked = nullptr;  ///< null in in-process mode
  ChaosReport report;

  void harness_error(const char* what, const std::string& detail) {
    std::fprintf(stderr, "soak chaos: %s: %s\n", what, detail.c_str());
    st->uninjected_errors.fetch_add(1, std::memory_order_relaxed);
  }

  const PendingEpoch* take_pending() {
    if (next_pending >= pending.size()) return nullptr;
    return &pending[next_pending++];
  }

  bool server_reload() {
    auto resp = serve::QueryClient::request_with_retry(
        st->host, static_cast<std::uint16_t>(st->port.load()), "RELOAD");
    if (!resp || response_is_error(*resp)) {
      harness_error("RELOAD",
                    resp ? *resp : resp.error().to_string());
      return false;
    }
    return true;
  }

  void run() {
    for (const ChaosEvent& event : events) {
      const auto due = st->t0 + std::chrono::milliseconds(event.at_ms);
      while (steady_clock::now() < due &&
             !st->stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      execute(event);
      ++report.events_run;
    }
  }

  void execute(const ChaosEvent& event) {
    switch (event.kind) {
      case ChaosKind::kAppend: {
        const PendingEpoch* next = take_pending();
        if (next == nullptr) {
          harness_error("append", "no pending epochs cached");
          return;
        }
        auto inferences = leasing::load_inferences_csv(next->csv_path);
        if (!inferences) {
          harness_error("append", inferences.error().to_string());
          return;
        }
        auto entry = catalog::catalog_append(
            st->catalog_dir, next->timestamp, std::move(*inferences));
        if (!entry) {
          harness_error("append", entry.error().to_string());
          return;
        }
        if (server_reload()) ++report.appends;
        (void)st->refcat->refresh();
        break;
      }
      case ChaosKind::kReload: {
        if (server_reload()) ++report.reloads;
        break;
      }
      case ChaosKind::kFaults: {
        // Armed sites self-exhaust (specs carry `times`); the window
        // tells the workers these failures are expected.
        const std::string spec =
            event.arg.empty()
                ? "serve.read=EIO:3,serve.write=EPIPE:3,serve.accept="
                  "EMFILE:2"
                : event.arg;
        st->add_window(st->now_ms(), st->now_ms() + 3000);
        fault::load_spec(spec);
        ++report.fault_storms;
        std::this_thread::sleep_for(std::chrono::milliseconds(2000));
        fault::disarm_all();
        break;
      }
      case ChaosKind::kKillAppend:
        kill_append();
        break;
      case ChaosKind::kKillServer:
        kill_server();
        break;
      case ChaosKind::kChurn: {
        std::uint64_t n = 50;
        if (auto parsed = parse_u64(event.arg)) n = *parsed;
        for (std::uint64_t i = 0; i < n; ++i) {
          auto c = serve::QueryClient::connect(
              st->host, static_cast<std::uint16_t>(st->port.load()),
              {.connect_ms = 2000, .io_ms = 2000});
          if (c && i % 2 == 0) (void)c->request("HEALTH");
          // Odd connections just slam shut — half-open churn.
        }
        report.churn_conns += n;
        break;
      }
      case ChaosKind::kSlowReader: {
        std::uint64_t lines = 20000;
        if (auto parsed = parse_u64(event.arg)) lines = *parsed;
        slow_reader(lines);
        ++report.slow_readers;
        break;
      }
    }
  }

  /// Fork a child that SIGKILLs itself in the middle of a catalog append
  /// (between publishing the epoch file and rewriting the index), then
  /// verify the catalog shrugs it off: a fresh open sweeps the orphan,
  /// the server keeps serving, and the same append retried to completion
  /// lands cleanly.
  void kill_append() {
    const PendingEpoch* next = take_pending();
    if (next == nullptr) {
      harness_error("killappend", "no pending epochs cached");
      return;
    }
    auto inferences = leasing::load_inferences_csv(next->csv_path);
    if (!inferences) {
      harness_error("killappend", inferences.error().to_string());
      return;
    }
    const std::size_t epochs_before = st->refcat->epochs().size();
    // Nothing may be armed at fork time: with zero armed sites no other
    // thread can be inside the fault registry's mutex when we fork.
    fault::disarm_all();
    const pid_t pid = ::fork();
    if (pid < 0) {
      harness_error("killappend", std::strerror(errno));
      return;
    }
    if (pid == 0) {
      if (!fault::enabled()) ::_exit(9);  // no harness: report "no kill"
      fault::arm("catalog.append_publish", fault::kCrash);
      std::vector<leasing::LeaseInference> copy = *inferences;
      (void)catalog::catalog_append(st->catalog_dir, next->timestamp,
                                    std::move(copy));
      ::_exit(42);  // the crash point did not fire
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)) {
      harness_error("killappend",
                    "appender was not SIGKILLed (status " +
                        std::to_string(status) + ")");
      return;
    }
    ++report.kills;
    // Restart-and-verify: a fresh open must see the pre-kill epoch list
    // (the torn append published no index entry) and sweep its leftovers.
    auto swept = catalog::Catalog::open(st->catalog_dir);
    if (!swept) {
      harness_error("killappend reopen", swept.error().to_string());
      return;
    }
    if ((*swept)->epochs().size() != epochs_before) {
      harness_error("killappend reopen",
                    "epoch count changed across a torn append");
      return;
    }
    auto health = serve::QueryClient::request_with_retry(
        st->host, static_cast<std::uint16_t>(st->port.load()), "HEALTH");
    if (!health || health->find("\"ok\":true") == std::string::npos) {
      harness_error("killappend health",
                    health ? *health : health.error().to_string());
      return;
    }
    // The interrupted append, retried, completes as if nothing happened.
    auto entry = catalog::catalog_append(st->catalog_dir, next->timestamp,
                                         std::move(*inferences));
    if (!entry) {
      harness_error("killappend retry", entry.error().to_string());
      return;
    }
    if (server_reload()) ++report.appends;
    (void)st->refcat->refresh();
  }

  void kill_server() {
    if (forked == nullptr) {
      harness_error("killserver", "requires --fork-server mode");
      return;
    }
    const std::uint64_t from = st->now_ms();
    st->add_window(from, from + 60000);  // trimmed once restarted
    forked->kill9();
    forked->reap();
    auto port = forked->launch();
    if (!port) {
      harness_error("killserver restart", port.error().to_string());
      return;
    }
    st->port.store(*port);
    ++report.kills;
    {
      // Shrink the provisional window to the actual outage + grace for
      // in-flight requests that will still fail against the dead port.
      std::lock_guard<std::mutex> lock(st->window_mu);
      st->windows.back().second = st->now_ms() + 2000;
    }
  }

  /// A peer that pipelines requests and never reads: the server's
  /// per-connection output cap must cut it, not OOM.
  void slow_reader(std::uint64_t lines) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return;
    int rcvbuf = 4096;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(st->port.load()));
    ::inet_pton(AF_INET, st->host.c_str(), &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd);
      return;
    }
    ::fcntl(fd, F_SETFL, O_NONBLOCK);
    std::string chunk;
    for (int i = 0; i < 256; ++i) chunk += "STATS\n";
    std::uint64_t sent_lines = 0;
    const auto deadline = steady_clock::now() + std::chrono::seconds(8);
    while (sent_lines < lines && steady_clock::now() < deadline) {
      const ssize_t n = ::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
      if (n > 0) {
        sent_lines += 256;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        pollfd p{fd, POLLOUT, 0};
        const int r = ::poll(&p, 1, 200);
        if (r > 0 && (p.revents & (POLLERR | POLLHUP))) break;
        continue;
      }
      break;  // EPIPE / ECONNRESET: the server cut us, as designed
    }
    // Linger without reading: closing now would RST the connection before
    // the server's output backlog ever crosses the cap. Wait for the
    // server to cut us (POLLERR/POLLHUP once it closes) instead.
    while (steady_clock::now() < deadline) {
      pollfd p{fd, 0, 0};
      const int r = ::poll(&p, 1, 250);
      if (r > 0 && (p.revents & (POLLERR | POLLHUP))) break;
    }
    ::close(fd);
  }
};

/// Parse one counter value out of a Prometheus scrape.
std::uint64_t scrape_counter(const std::string& text,
                             std::string_view family) {
  for (std::string_view line : split(text, '\n')) {
    if (!line.starts_with(family)) continue;
    const std::string_view rest = trim(line.substr(family.size()));
    if (auto value = parse_u64(rest)) return *value;
  }
  return 0;
}

/// Pull the server's flight-recorder slow log via INSPECT and flatten it
/// across shards, worst-first. Best-effort: any transport or parse
/// failure just yields no evidence — the report's SLO verdict must not
/// depend on the introspection path.
std::vector<SlowRequestEvidence> collect_slow_evidence(
    const std::string& host, std::uint16_t port) {
  std::vector<SlowRequestEvidence> out;
  auto body = serve::QueryClient::request_with_retry(host, port, "INSPECT");
  if (!body) return out;
  auto doc = JsonValue::parse(*body);
  if (!doc) return out;
  for (const JsonValue& shard : (*doc)["shards"].items()) {
    const auto shard_id =
        static_cast<std::uint32_t>(shard["shard"].as_u64());
    for (const JsonValue& slow : shard["slow_requests"].items()) {
      SlowRequestEvidence ev;
      ev.shard = shard_id;
      ev.seq = slow["seq"].as_u64();
      ev.verb = slow["verb"].as_string();
      ev.status = slow["status"].as_string();
      ev.read_us = slow["read_us"].as_double();
      ev.parse_us = slow["parse_us"].as_double();
      ev.engine_us = slow["engine_us"].as_double();
      ev.write_us = slow["write_us"].as_double();
      ev.total_us = slow["total_us"].as_double();
      ev.detail = slow["detail"].as_string();
      out.push_back(std::move(ev));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SlowRequestEvidence& a, const SlowRequestEvidence& b) {
              if (a.total_us != b.total_us) return a.total_us > b.total_us;
              if (a.shard != b.shard) return a.shard < b.shard;
              return a.seq < b.seq;
            });
  constexpr std::size_t kMaxEvidence = 16;
  if (out.size() > kMaxEvidence) out.resize(kMaxEvidence);
  return out;
}

}  // namespace

Expected<LoadReport> run_load(const LoadOptions& options) {
  auto events = parse_scenario(options.scenario);
  if (!events) return events.error();
  const bool forked_mode = !options.server_argv.empty();
  bool needs_pending = false;
  for (const ChaosEvent& event : *events) {
    if (event.kind == ChaosKind::kFaults && forked_mode) {
      return fail("faults chaos events need the in-process server");
    }
    if (event.kind == ChaosKind::kKillServer && !forked_mode) {
      return fail("killserver chaos events need a forked server");
    }
    if (event.kind == ChaosKind::kAppend ||
        event.kind == ChaosKind::kKillAppend) {
      needs_pending = true;
    }
  }

  RunState st;
  st.options = &options;
  std::string run_dir = options.run_dir;
  if (run_dir.empty()) {
    run_dir = "/tmp/sublet-soak-run-" + std::to_string(::getpid()) + "-" +
              std::to_string(options.seed);
  }

  // World: cached build (or a caller-provided catalog), cloned into the
  // run's scratch dir so chaos appends never dirty the cache.
  SoakWorld world;
  if (options.catalog_dir.empty()) {
    auto built = ensure_soak_world(options.world);
    if (!built) return built.error();
    world = std::move(*built);
  } else {
    world.catalog_dir = options.catalog_dir;
  }
  if (needs_pending && world.pending.empty()) {
    return fail("append/killappend events need cached pending epochs "
                "(world mode, world.pending > 0)");
  }
  auto cloned = clone_catalog(world, run_dir + "/catalog");
  if (!cloned) return cloned.error();
  st.catalog_dir = *cloned;

  // The driver's own reference view, for differential spot checks. Opened
  // before any chaos runs; all later open()s and appends are serialized on
  // the chaos thread (Catalog::open's crash-leftover sweep must never race
  // an in-flight append).
  auto refcat = catalog::Catalog::open(st.catalog_dir);
  if (!refcat) return refcat.error();
  st.refcat = std::move(*refcat);
  auto base = st.refcat->epoch_at(0);
  if (!base) return base.error();
  st.base = std::move(*base);
  st.pinned_epochs = st.refcat->epochs();
  st.allow_unpinned_checks = true;
  for (const ChaosEvent& event : *events) {
    if (event.kind == ChaosKind::kAppend ||
        event.kind == ChaosKind::kKillAppend ||
        event.kind == ChaosKind::kKillServer) {
      st.allow_unpinned_checks = false;
    }
  }

  // Server: in-process by default, forked when server_argv is given.
  // Align the flight recorder's "slow" with the SLO contract so a bound
  // violation always ships concrete slow-request evidence (the server
  // default of 1ms could sit above a tight --p99-us bound).
  const auto slow_threshold_us = static_cast<std::uint64_t>(std::max(
      1.0, std::min(options.p99_bound_us, options.heavy_p99_bound_us)));
  std::unique_ptr<serve::QueryServer> local_server;
  ForkedServer forked;
  if (forked_mode) {
    forked.argv_base = options.server_argv;
    forked.catalog_dir = st.catalog_dir;
    forked.port_file = run_dir + "/port";
    forked.log_path = run_dir + "/server.log";
    forked.shards = options.shards;
    forked.max_outbuf_bytes = options.max_outbuf_bytes;
    forked.slow_threshold_us = slow_threshold_us;
    auto port = forked.launch();
    if (!port) return port.error();
    st.port.store(*port);
  } else {
    auto served = catalog::Catalog::open(st.catalog_dir);
    if (!served) return served.error();
    auto initial = (*served)->epoch_at(0);
    if (!initial) return initial.error();
    serve::QueryServer::Options server_options;
    server_options.shards = options.shards;
    server_options.max_conns = 1024;
    server_options.max_outbuf_bytes = options.max_outbuf_bytes;
    server_options.slow_threshold_us = slow_threshold_us;
    local_server = std::make_unique<serve::QueryServer>(
        std::shared_ptr<serve::EpochSource>(std::move(*served)),
        std::move(*initial), server_options);
    auto port = local_server->start();
    if (!port) return port.error();
    st.port.store(*port);
  }

  LoadReport report;
  report.seed = options.seed;
  report.scenario = canonical_scenario(*events);
  report.workers = std::max(options.workers, 1u);
  report.duration_ms = options.duration_ms;
  report.qps = options.qps;
  report.zipf_alpha = options.zipf_alpha;
  report.world_seed = options.world.seed;
  report.world_scale = options.world.scale;
  report.records = st.base->snapshot().record_count();
  auto schedules = build_schedules(options, report.records,
                                   &report.schedule_digest, &report.planned);

  st.t0 = steady_clock::now();
  Chaos chaos;
  chaos.st = &st;
  chaos.events = std::move(*events);
  chaos.pending = world.pending;
  chaos.forked = forked_mode ? &forked : nullptr;
  std::thread chaos_thread([&] { chaos.run(); });

  std::vector<std::thread> threads;
  std::vector<Worker> workers(report.workers);
  for (unsigned w = 0; w < report.workers; ++w) {
    workers[w].st = &st;
    workers[w].ops = &schedules[w];
    workers[w].id = w;
    threads.emplace_back([&, w] { workers[w].run(); });
  }
  for (std::thread& t : threads) t.join();
  chaos_thread.join();
  report.elapsed_ms = st.now_ms();

  // One last scrape for the server-side chaos evidence, then shut down.
  {
    auto metrics = serve::QueryClient::request_multiline_with_retry(
        st.host, static_cast<std::uint16_t>(st.port.load()), "METRICS");
    if (metrics) {
      chaos.report.outbuf_overflows =
          scrape_counter(*metrics,
                         obs::labeled("sublet_serve_conn_closed_total",
                                      "reason", "outbuf_overflow"));
    }
    report.slow_requests = collect_slow_evidence(
        st.host, static_cast<std::uint16_t>(st.port.load()));
  }
  if (local_server) {
    local_server->stop();
  } else {
    forked.shutdown();
  }
  fault::disarm_all();

  // ---- fill + evaluate the SLO contract ----
  report.total_requests = st.total_requests.load();
  report.total_lookups = st.total_lookups.load();
  report.spot_checks = st.spot_checks.load();
  report.wrong_answers = st.wrong_answers.load();
  report.injected_errors = st.injected_errors.load();
  report.uninjected_errors = st.uninjected_errors.load();
  if (report.elapsed_ms > 0) {
    report.achieved_qps = static_cast<double>(report.total_requests) *
                          1000.0 / static_cast<double>(report.elapsed_ms);
    report.lookups_per_s = static_cast<double>(report.total_lookups) *
                           1000.0 / static_cast<double>(report.elapsed_ms);
  }
  report.chaos = chaos.report;
  report.slo.p99_bound_us = options.p99_bound_us;
  report.slo.heavy_p99_bound_us = options.heavy_p99_bound_us;
  bool p99_ok = true;
  for (std::size_t v = 0; v < kVerbCount; ++v) {
    VerbReport& verb = report.verbs[v];
    verb.completed = st.completed[v].load();
    verb.errors = st.errors[v].load();
    verb.p50_us = st.latency[v].quantile(0.5);
    verb.p99_us = st.latency[v].quantile(0.99);
    if (verb.completed == 0) continue;
    const double bound = is_point_verb(static_cast<LoadVerb>(v))
                             ? options.p99_bound_us
                             : options.heavy_p99_bound_us;
    if (verb.p99_us > bound) p99_ok = false;
  }
  report.slo.p99_ok = p99_ok;
  report.slo.zero_wrong_answers = report.wrong_answers == 0;
  report.slo.zero_uninjected_errors = report.uninjected_errors == 0;
  report.slo.pass = report.slo.p99_ok && report.slo.zero_wrong_answers &&
                    report.slo.zero_uninjected_errors;

  if (!options.report_path.empty()) {
    std::ofstream out(options.report_path);
    out << report.to_json() << "\n";
  }
  if (!options.keep_run_dir) {
    std::error_code ec;
    fs::remove_all(run_dir, ec);
  }
  return report;
}

}  // namespace sublet::loadgen
