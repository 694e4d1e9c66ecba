// serve-epochs: a catalog server answering latest, AT-pinned, HISTORY and
// STATS requests while the benchmark appends epochs and publishes them with
// a bare RELOAD. Every answer is checked after the run against an
// in-process Catalog, pinned to the epochs the server could have been
// serving while the request was in flight.
#include <filesystem>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "catalog/catalog.h"
#include "leasing/report.h"
#include "loadgen/worldcache.h"
#include "serve/client.h"
#include "serve/server.h"
#include "workloads.h"

namespace pb {

namespace fs = std::filesystem;
using sublet::catalog::Catalog;
using sublet::serve::EngineState;
using sublet::serve::QueryClient;

namespace {

constexpr double kEpochRate = 10000;  // nominal requests/s
constexpr std::size_t kAddrs = 8192;  // address pool, drawn Zipf(1)
// Request mix in tenths of a percent: latest LPM, AT, HISTORY, then STATS.
constexpr std::uint64_t kLatestShare = 500, kAtShare = 300,
                        kHistoryShare = 195;

enum Kind : std::uint32_t { kLatest = 0, kAt = 1, kHistory = 2, kStats = 3 };

/// The first `epochs` of a catalog: what a server answered from before
/// the later appends were published.
class FirstEpochs : public sublet::serve::EpochSource {
 public:
  FirstEpochs(Catalog* catalog, std::vector<std::uint32_t> epochs)
      : catalog_(catalog), epochs_(std::move(epochs)) {}
  std::vector<std::uint32_t> epochs() const override { return epochs_; }
  sublet::Expected<std::shared_ptr<const EngineState>> epoch_at(
      std::uint32_t at) override {
    return catalog_->epoch_at(at == 0 ? epochs_.back()
                                      : std::min(at, epochs_.back()));
  }
  sublet::Expected<std::shared_ptr<const EngineState>> refresh() override {
    return epoch_at(0);
  }

 private:
  Catalog* catalog_;
  std::vector<std::uint32_t> epochs_;
};

/// The two parts of a STATS answer that do not count requests: the
/// snapshot aggregate (without the memory figures, which differ between a
/// latest epoch, served with the stride table, and the same epoch served as
/// history) and the epoch range. They are checked separately: during a
/// RELOAD the server can pair the new epoch range with the previous
/// epoch's aggregate, because it reads the two at different moments.
std::pair<std::uint64_t, std::uint64_t> stats_digests(std::string_view stats) {
  const auto groups = stats.find("\"groups\"");
  const auto memory = stats.find(",\"memory\"");
  const auto epochs = stats.rfind(",\"epochs\":");
  if (groups == std::string_view::npos || memory == std::string_view::npos ||
      epochs == std::string_view::npos || memory < groups) {
    return {fnv1a(stats), 0};
  }
  return {fnv1a(stats.substr(groups, memory - groups)),
          fnv1a(stats.substr(epochs))};
}

struct Answer {
  std::uint32_t id = 0;
  double due = 0;
  double received = 0;
  std::uint64_t digest = 0;
  std::uint64_t epochs_digest = 0;  ///< STATS only: the epoch range
};

struct Publish {
  std::uint32_t epoch = 0;
  std::uint64_t delta_bytes = 0;
  double reload_sent = 0;
  double reload_done = 0;
  double publish_ms = 0;
};

}  // namespace

Result run_serve_epochs(const RunConfig& cfg) {
  Result r;
  sublet::loadgen::SoakWorldSpec spec;
  spec.seed = cfg.seed;
  spec.scale = kEpochScale;
  spec.epochs = kEpochs;
  spec.pending = kPending;
  auto world = sublet::loadgen::ensure_soak_world(spec, cfg.work + "/soak");
  if (!world) {
    r.fail("soak world: " + world.error().to_string());
    return r;
  }
  std::vector<std::vector<sublet::leasing::LeaseInference>> pending;
  for (const auto& p : world->pending) {
    auto rows = sublet::leasing::load_inferences_csv(p.csv_path);
    if (!rows) {
      r.fail("pending epoch CSV: " + rows.error().to_string());
      return r;
    }
    pending.push_back(std::move(*rows));
  }
  const std::string run = cfg.work + "/run-epochs";
  const std::string catalog_dir = run + "/catalog";
  fs::create_directories(run);
  pin_to_half(1);
  settle();
  ServerProcess server;
  const double setup_s = timed_server_starts(
      server, serve_argv(cfg, catalog_dir, true), run, 3,
      [&] {
        if (!sublet::loadgen::clone_catalog(*world, catalog_dir)) {
          r.fail("catalog clone failed");
        }
      },
      r);
  if (!r.correct) return r;
  auto opened = Catalog::open(catalog_dir);
  if (!opened) {
    r.fail("catalog: " + opened.error().to_string());
    return r;
  }
  std::unique_ptr<Catalog> catalog = std::move(*opened);
  const std::vector<std::uint32_t> base_epochs = catalog->epochs();
  auto latest = catalog->epoch_at(0);
  if (!latest) {
    r.fail("latest epoch: " + latest.error().to_string());
    return r;
  }
  std::vector<std::string> addr_text(kAddrs);
  {
    const auto& engine = (*latest)->engine();
    const auto n = engine.snapshot().record_count();
    std::uint64_t rng = cfg.seed ^ 0x65706f6368ull;
    for (std::string& text : addr_text) {
      const auto leaf = static_cast<std::uint32_t>(next_random(rng) % n);
      text = dotted(address_in(engine, leaf, rng)) + "/32";
    }
  }

  PickFn pick = [&](std::uint64_t& rng, std::string& line) -> std::uint32_t {
    const auto addr = static_cast<std::uint32_t>(zipf_rank(rng, kAddrs));
    const std::uint64_t u = next_random(rng) % 1000;
    if (u < kLatestShare) {
      line = "LPM " + addr_text[addr];
      return addr << 8 | kLatest;
    }
    if (u < kLatestShare + kAtShare) {
      const auto e = static_cast<std::uint32_t>(next_random(rng) %
                                                base_epochs.size());
      line = "LPM " + addr_text[addr] + " AT " + std::to_string(base_epochs[e]);
      return addr << 8 | e << 2 | kAt;
    }
    if (u < kLatestShare + kAtShare + kHistoryShare) {
      line = "HISTORY " + addr_text[addr];
      return addr << 8 | kHistory;
    }
    line = "STATS";
    return kStats;
  };
  std::vector<std::vector<Answer>> answers(OpenLoopOptions{}.threads);
  CheckFn check = [&](unsigned thread, std::uint32_t id, std::string_view resp,
                      double due, double received) {
    Answer a{id, due, received, 0, 0};
    if ((id & 3) == kStats) {
      std::tie(a.digest, a.epochs_digest) = stats_digests(resp);
    } else {
      a.digest = fnv1a(resp);
    }
    answers[thread].push_back(a);
    return true;
  };

  OpenLoopOptions options;
  options.port = server.port();
  options.seed = cfg.seed;
  options.rate = kEpochRate;
  options.seconds = 0.05 * cfg.seconds;  // warm-up
  count_text_load(r, run_open_loop(options, pick, check), "warm-up");

  // Publisher: append each pending epoch in-process, RELOAD, then wait
  // for the first answer from the new epoch.
  std::vector<Publish> publishes;
  std::vector<std::string> publish_errors;
  const double phase = 0.5 * cfg.seconds;
  const double period = phase / (kPending + 1);
  std::thread writer([&] {
    auto client = QueryClient::connect("127.0.0.1", server.port());
    if (!client) {
      publish_errors.push_back("publisher connection refused");
      return;
    }
    const double start = clock_s();
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const double due = start + (i + 1) * period;
      while (clock_s() < due) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      Publish p;
      p.epoch = world->pending[i].timestamp;
      const double t0 = clock_s();
      auto entry = sublet::catalog::catalog_append(catalog_dir, p.epoch,
                                                   std::move(pending[i]));
      if (!entry) {
        publish_errors.push_back("append: " + entry.error().to_string());
        return;
      }
      p.delta_bytes = entry->bytes;
      p.reload_sent = clock_s();
      auto reloaded = client->request("RELOAD");
      p.reload_done = clock_s();
      auto probe = client->request("LPM " + addr_text[0] + " AT " +
                                   std::to_string(p.epoch));
      p.publish_ms = (clock_s() - t0) * 1e3;
      if (!reloaded || reloaded->find("\"ok\":true") == std::string::npos ||
          !probe ||
          probe->find("\"epoch\":" + std::to_string(p.epoch)) ==
              std::string::npos) {
        publish_errors.push_back("epoch " + std::to_string(p.epoch) +
                                 " was not served after RELOAD");
        return;
      }
      publishes.push_back(p);
    }
  });
  options.seconds = phase;
  TextLoadStats main_phase = run_open_loop(options, pick, check);
  writer.join();
  count_text_load(r, main_phase, "epochs");
  for (const std::string& e : publish_errors) r.fail(e);
  r.attempted += pending.size();
  r.failed += pending.size() - publishes.size();
  r.note("serve-epochs nominal " + fmt(kEpochRate, 0) + "/s " +
         describe_load(main_phase));
  const double max_qps =
      run_ladder(options, kEpochRate / 2, 0.04 * cfg.seconds, pick, check, r);
  const double rss = server.peak_rss_mb();
  server.stop();

  // Check every answer. State j is the catalog after j publishes; it may
  // have answered from the moment its RELOAD was sent until the next
  // RELOAD returned.
  if (!catalog->refresh()) r.fail("in-process catalog refresh failed");
  const std::vector<std::uint32_t> all_epochs = catalog->epochs();
  const std::size_t states = publishes.size() + 1;
  std::vector<double> from(states), until(states);
  std::vector<std::unique_ptr<sublet::serve::QueryServer>> shadows(states);
  for (std::size_t j = 0; j < states; ++j) {
    from[j] = j == 0 ? 0 : publishes[j - 1].reload_sent;
    until[j] = j + 1 < states ? publishes[j].reload_done : 1e300;
    const auto count = static_cast<std::ptrdiff_t>(base_epochs.size() + j);
    std::vector<std::uint32_t> epochs(all_epochs.begin(),
                                      all_epochs.begin() + count);
    auto initial = catalog->epoch_at(epochs.back());
    if (!initial) {
      r.fail("epoch " + std::to_string(epochs.back()) +
             " does not materialize");
      return r;
    }
    shadows[j] = std::make_unique<sublet::serve::QueryServer>(
        std::make_shared<FirstEpochs>(catalog.get(), epochs), *initial,
        sublet::serve::QueryServer::Options{});
  }
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
      expected;
  auto expected_digests = [&](std::uint32_t id, std::size_t state) {
    const std::uint32_t kind = id & 3;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(id) << 8) | (kind == kAt ? 0 : state);
    auto it = expected.find(key);
    if (it != expected.end()) return it->second;
    const std::string& addr = addr_text[id >> 8];
    std::pair<std::uint64_t, std::uint64_t> digests{0, 0};
    if (kind == kLatest) {
      digests.first = fnv1a(shadows[state]->handle_request("LPM " + addr));
    } else if (kind == kAt) {
      const std::uint32_t at = base_epochs[(id >> 2) & 63];
      digests.first = fnv1a(shadows.back()->handle_request(
          "LPM " + addr + " AT " + std::to_string(at)));
    } else if (kind == kHistory) {
      digests.first = fnv1a(shadows[state]->handle_request("HISTORY " + addr));
    } else {
      digests = stats_digests(shadows[state]->handle_request("STATS"));
    }
    expected.emplace(key, digests);
    return digests;
  };
  std::uint64_t wrong = 0;
  for (const auto& per_thread : answers) {
    for (const Answer& a : per_thread) {
      bool body = false, range = false;
      for (std::size_t j = 0; j < states; ++j) {
        if (from[j] <= a.received && a.due <= until[j]) {
          const auto want = expected_digests(a.id, j);
          body = body || want.first == a.digest;
          range = range || want.second == a.epochs_digest;
        }
      }
      wrong += !(body && range);
    }
  }
  if (wrong) {
    r.failed += wrong;
    r.fail(std::to_string(wrong) +
           " answers differ from the in-process catalog");
  }

  std::vector<double> publish_ms;
  for (const Publish& p : publishes) {
    publish_ms.push_back(p.publish_ms);
    r.note("  published epoch " + std::to_string(p.epoch) + ": " +
           std::to_string(p.delta_bytes) + " B written, " +
           fmt(p.publish_ms, 1) + " ms");
  }
  const double p50 = main_phase.latency_us.all().median();
  const double p99 = main_phase.latency_us.window_median(0.99);
  const double publish = median_of(publish_ms);
  note_metric(r, "setup_s", setup_s, "s");
  note_metric(r, "epoch_p50_us", p50, "us");
  note_metric(r, "epoch_p99_us", p99, "us");
  note_metric(r, "publish_ms", publish, "ms");
  note_metric(r, "epoch_max_qps", max_qps, "1/s");
  note_metric(r, "serve_rss_mb", rss, "MB");
  add_common_metrics(r, setup_s, p50, p99, max_qps, rss);
  return r;
}

}  // namespace pb
