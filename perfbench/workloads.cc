// The four end-to-end workloads. Each fills the JSON metrics every
// workload reports (see README.md for what each one means per workload)
// and report lines with the workload's own metric names.
#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "serve/client.h"
#include "serve/engine_state.h"
#include "snapshot/snapshot.h"

namespace pb {

namespace fs = std::filesystem;
using sublet::serve::EngineState;
using sublet::serve::QueryClient;
using sublet::serve::QueryEngine;

namespace {

constexpr double kPointRate = 20000;      // nominal requests/s
constexpr double kLadderStep = 1.25;      // rung-to-rung ratio
constexpr int kLadderRungs = 7;           // the top rung is 3.8x the first
constexpr double kP99LimitUs = 1000;      // latency limit of a rung
constexpr double kLatenessLimitUs = 500;  // generator must keep up
constexpr int kReloads = 9;               // RELOADs timed per run
constexpr int kSnapshotWrites = 3;        // per batch-infer iteration
constexpr std::size_t kFrames = 256;
constexpr std::size_t kFrameAddrs = 1024;
constexpr unsigned kFrameDepth = 4;
constexpr unsigned kFrameConns = 2;

}  // namespace

void add_common_metrics(Result& r, double setup_s, double p50_us,
                        double tail_us, double rate, double rss_mb) {
  r.add("setup_s", setup_s, "s");
  r.add("p50_us", p50_us, "us");
  r.add("tail_us", tail_us, "us");
  r.add("rate_per_s", rate, "1/s");
  r.add("rss_mb", rss_mb, "MB");
}

void note_metric(Result& r, const std::string& name, double value,
                 const std::string& unit) {
  r.note("  " + name + " = " + fmt(value, 3) + " " + unit);
}

void count_text_load(Result& r, const TextLoadStats& s,
                     const std::string& phase) {
  r.attempted += s.attempted;
  r.failed += s.failed + s.wrong;
  if (s.failed) {
    r.fail(phase + ": " + std::to_string(s.failed) + " unanswered");
  }
  if (s.wrong) {
    r.fail(phase + ": " + std::to_string(s.wrong) + " wrong answers");
  }
}

std::string describe_load(TextLoadStats& s) {
  Samples& all = s.latency_us.all();
  double which = 0;
  const double tail = all.tail(&which);
  return "n=" + std::to_string(all.count()) + " p50=" + fmt(all.median(), 1) +
         "us p99=" + fmt(all.quantile(0.99), 1) + "us p" + fmt(which, 2) +
         "=" + fmt(tail, 1) + "us window-p99=" +
         fmt(s.latency_us.window_median(0.99), 1) + "us lateness p50=" +
         fmt(s.lateness_us.all().median(), 1) + "us p99=" +
         fmt(s.lateness_us.all().quantile(0.99), 1) + "us";
}

double run_ladder(OpenLoopOptions options, double first_rate, double step_s,
                  const PickFn& pick, const CheckFn& check, Result& r) {
  // One rung: met when nothing failed and, in the typical 100 ms window,
  // p99 stays under the limit and the generator kept its schedule. A
  // missed rung gets a second try so one host stall cannot end the ladder.
  auto rung = [&](double rate, double* achieved) {
    options.rate = rate;
    options.seconds = step_s;
    for (int attempt = 0; attempt < 2; ++attempt) {
      options.seed += 17;
      TextLoadStats s = run_open_loop(options, pick, check);
      count_text_load(r, s, "ladder " + fmt(rate, 0));
      const bool met =
          s.failed == 0 && s.wrong == 0 &&
          s.latency_us.window_median(0.99) <= kP99LimitUs &&
          s.lateness_us.window_median(0.99) <= kLatenessLimitUs;
      r.note("  ladder " + fmt(rate, 0) + "/s " + (met ? "met " : "MISSED ") +
             describe_load(s));
      if (met) {
        *achieved = s.latency_us.all().count() / s.elapsed_s;
        return true;
      }
    }
    return false;
  };
  double met_rate = 0, missed_rate = 0, best = 0;
  double rate = first_rate;
  for (int i = 0; i < kLadderRungs; ++i, rate *= kLadderStep) {
    if (!rung(rate, &best)) {
      missed_rate = rate;
      break;
    }
    met_rate = rate;
  }
  // Two bisection steps between the last rung met and the first missed
  // narrow the answer to a quarter of a rung.
  for (int i = 0; i < 2 && met_rate > 0 && missed_rate > 0; ++i) {
    const double mid = std::sqrt(met_rate * missed_rate);
    if (rung(mid, &best)) {
      met_rate = mid;
    } else {
      missed_rate = mid;
    }
  }
  return best;
}

namespace {

/// Median round trip of `RELOAD <path>` on one client.
double median_reload_ms(std::uint16_t port, const std::string& snap,
                        Result& r) {
  auto client = QueryClient::connect("127.0.0.1", port);
  std::vector<double> ms;
  for (int i = 0; i < kReloads && client; ++i) {
    const auto t0 = Clock::now();
    auto resp = client->request("RELOAD " + snap);
    ms.push_back(since(t0) * 1e3);
    ++r.attempted;
    if (!resp || resp->find("\"ok\":true") == std::string::npos) {
      ++r.failed;
      r.fail("RELOAD refused");
    }
  }
  if (!client) r.fail("control connection refused");
  std::string all;
  for (double v : ms) all += " " + fmt(v, 1);
  r.note("  RELOAD ms:" + all);
  return median_of(ms);
}

}  // namespace

Result run_batch_infer(const RunConfig& cfg) {
  Result r;
  double setup_s = 0;
  const BatchWorld w = ensure_batch_world(cfg, /*fresh=*/true, &setup_s);
  const std::string run = cfg.work + "/run-batch";
  fs::remove_all(run);
  fs::create_directories(run);
  const std::string csv = run + "/out.csv", snap = run + "/out.snap";
  std::vector<double> infer_s, snapshot_s, rss_mb;
  settle();
  const auto t0 = Clock::now();
  double last = 0;
  while (infer_s.size() < 2 || since(t0) + last < cfg.seconds) {
    const auto it0 = Clock::now();
    double wall = 0, peak = 0;
    ++r.attempted;
    int rc = run_child({cfg.sublet, "infer", w.world, "-o", csv},
                       run + "/infer.log", &wall, &peak);
    if (rc != 0 || fnv1a(read_file(csv)) != w.csv_digest) {
      ++r.failed;
      r.fail("infer output differs from the reference (exit " +
             std::to_string(rc) + ")");
      break;
    }
    infer_s.push_back(wall);
    rss_mb.push_back(peak);
    // The write ends in an fsync, whose latency varies more than the
    // encoding work; a few writes per iteration keep its median steady.
    for (int i = 0; i < kSnapshotWrites && r.correct; ++i) {
      ++r.attempted;
      rc = run_child({cfg.sublet, "snapshot", "write", csv, snap},
                     run + "/snapshot.log", &wall, nullptr);
      if (rc != 0 || !sublet::snapshot::Snapshot::open(snap) ||
          fnv1a(read_file(snap)) != w.snap_digest) {
        ++r.failed;
        r.fail("snapshot write output differs from the reference");
      }
      snapshot_s.push_back(wall);
    }
    if (!r.correct) break;
    last = since(it0);
  }
  if (infer_s.empty()) return r;
  const double infer_med = median_of(infer_s);
  double infer_max = *std::max_element(infer_s.begin(), infer_s.end());
  r.note("batch-infer: " + std::to_string(infer_s.size()) +
         " iterations over " + std::to_string(w.leaves) + " leaves");
  note_metric(r, "setup_s", setup_s, "s");
  note_metric(r, "infer_s", infer_med, "s");
  note_metric(r, "snapshot_s", median_of(snapshot_s), "s");
  note_metric(r, "infer_rss_mb", median_of(rss_mb), "MB");
  add_common_metrics(r, setup_s, infer_med * 1e6, infer_max * 1e6,
                     static_cast<double>(w.leaves) / infer_med,
                     median_of(rss_mb));
  return r;
}

Result run_serve_point(const RunConfig& cfg) {
  Result r;
  const BatchWorld w = ensure_batch_world(cfg, false, nullptr);
  auto state = EngineState::load(w.ref_snap);
  if (!state) {
    r.fail("reference snapshot does not load");
    return r;
  }
  const QueryEngine& engine = (*state)->engine();
  const PointPool pool = make_point_pool(engine, cfg.seed);
  const std::string run = cfg.work + "/run-point";
  fs::create_directories(run);
  pin_to_half(1);
  settle();
  ServerProcess server;
  const double setup_s = timed_server_starts(
      server, serve_argv(cfg, w.ref_snap, false), run, 3, {}, r);
  if (!r.correct) return r;

  PickFn pick = [&](std::uint64_t& rng, std::string& line) {
    const std::uint32_t id = pool.pick(rng);
    line = pool.lines[id];
    return id;
  };
  CheckFn check = [&](unsigned, std::uint32_t id, std::string_view resp,
                      double, double) {
    return fnv1a(resp) == pool.expected[id];
  };
  OpenLoopOptions options;
  options.port = server.port();
  options.seed = cfg.seed;
  options.rate = kPointRate;
  options.seconds = 0.05 * cfg.seconds;  // warm-up, not recorded
  run_open_loop(options, pick, check);
  options.seconds = 0.3 * cfg.seconds;
  const double cpu0 = server.cpu_seconds();
  TextLoadStats nominal = run_open_loop(options, pick, check);
  const double cpu_us = (server.cpu_seconds() - cpu0) * 1e6 /
                        nominal.latency_us.all().count();
  count_text_load(r, nominal, "nominal");
  r.note("serve-point nominal " + fmt(kPointRate, 0) + "/s " +
         describe_load(nominal) + " server cpu " + fmt(cpu_us, 2) +
         "us/request");
  const double max_qps = run_ladder(options, 2 * kPointRate,
                                    0.04 * cfg.seconds, pick, check, r);
  const double reload_ms = median_reload_ms(server.port(), w.ref_snap, r);
  const double rss = server.peak_rss_mb();
  server.stop();
  const double p50 = nominal.latency_us.all().median();
  const double p99 = nominal.latency_us.window_median(0.99);
  note_metric(r, "setup_s", setup_s, "s");
  note_metric(r, "point_p50_us", p50, "us");
  note_metric(r, "point_p99_us", p99, "us");
  note_metric(r, "point_max_qps", max_qps, "1/s");
  note_metric(r, "serve_rss_mb", rss, "MB");
  note_metric(r, "reload_ms", reload_ms, "ms");
  add_common_metrics(r, setup_s, p50, p99, max_qps, rss);
  return r;
}

Result run_serve_batch(const RunConfig& cfg) {
  Result r;
  const BatchWorld w = ensure_batch_world(cfg, false, nullptr);
  auto state = EngineState::load(w.ref_snap);
  if (!state) {
    r.fail("reference snapshot does not load");
    return r;
  }
  double hit_ratio = 0;
  const auto frames = make_frames((*state)->engine(), cfg.seed, kFrames,
                                  kFrameAddrs, &hit_ratio);
  const std::string run = cfg.work + "/run-batchframes";
  fs::create_directories(run);
  pin_to_half(1);
  settle();
  ServerProcess server;
  const double setup_s = timed_server_starts(
      server, serve_argv(cfg, w.ref_snap, false), run, 3, {}, r);
  if (!r.correct) return r;
  run_frame_loop(server.port(), frames, 0.05 * cfg.seconds, kFrameConns,
                 kFrameDepth,
                 cfg.seed);
  const double cpu0 = server.cpu_seconds();
  FrameLoadStats s = run_frame_loop(server.port(), frames, 0.7 * cfg.seconds,
                                    kFrameConns, kFrameDepth, cfg.seed + 1);
  const double cpu_ns = (server.cpu_seconds() - cpu0) * 1e9 / s.lookups;
  r.attempted += s.frames + s.failed;
  r.failed += s.failed + s.wrong;
  if (s.failed || s.wrong) {
    r.fail("frames: " + std::to_string(s.failed) + " failed, " +
           std::to_string(s.wrong) + " wrong");
  }
  const double reload_ms = median_reload_ms(server.port(), w.ref_snap, r);
  const double rss = server.peak_rss_mb();
  server.stop();
  const double lookups_s = static_cast<double>(s.lookups) / s.elapsed_s;
  Samples& all = s.frame_us.all();
  double which = 0;
  const double tail = all.tail(&which);
  const double p99 = s.frame_us.window_median(0.99);
  r.note("serve-batch: " + std::to_string(s.frames) + " frames of " +
         std::to_string(kFrameAddrs) + " addresses, hit ratio " +
         fmt(hit_ratio, 3) + ", frame p50 " + fmt(all.median(), 1) +
         "us p99 " + fmt(all.quantile(0.99), 1) + "us p" + fmt(which, 2) +
         " " + fmt(tail, 1) + "us window-p99 " + fmt(p99, 1) +
         "us, server cpu " + fmt(cpu_ns, 2) + "ns/lookup");
  note_metric(r, "setup_s", setup_s, "s");
  note_metric(r, "batch_lookups_per_s", lookups_s, "1/s");
  note_metric(r, "batch_frame_p99_us", p99, "us");
  note_metric(r, "serve_rss_mb", rss, "MB");
  note_metric(r, "reload_ms", reload_ms, "ms");
  add_common_metrics(r, setup_s, all.median(), p99, lookups_s, rss);
  return r;
}

}  // namespace pb
