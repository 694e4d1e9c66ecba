// Inputs shared by the workloads: the seeded batch world with its
// in-process reference answers, the point request pool, and the frames.
#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "asgraph/as_graph.h"
#include "leasing/dataset.h"
#include "leasing/pipeline.h"
#include "leasing/report.h"
#include "serve/wire.h"
#include "simnet/builder.h"
#include "simnet/emit.h"
#include "snapshot/writer.h"
#include "workloads.h"

namespace pb {

namespace fs = std::filesystem;
using sublet::serve::QueryEngine;

BatchWorld ensure_batch_world(const RunConfig& cfg, bool fresh,
                              double* build_s) {
  const std::string base = cfg.work + "/batch-" + std::to_string(cfg.seed);
  BatchWorld w;
  w.world = base + "/world";
  w.ref_csv = base + "/ref.csv";
  w.ref_snap = base + "/ref.snap";
  const std::string marker = base + "/complete";
  if (build_s) *build_s = 0;
  if (!fresh) {
    std::ifstream in(marker);
    if (in >> w.csv_digest >> w.snap_digest >> w.leaves) return w;
  }
  const auto t0 = Clock::now();
  fs::remove_all(base);
  fs::create_directories(base);
  sublet::sim::WorldConfig config;
  config.scale = kBatchScale;
  config.seed = cfg.seed;
  sublet::sim::emit_world(sublet::sim::build_world(config), w.world);

  // Reference answers, computed in-process the way `sublet infer` does.
  sublet::leasing::DatasetBundle bundle =
      sublet::leasing::load_dataset(w.world);
  sublet::asgraph::AsGraph graph(&bundle.as_rel, &bundle.as2org);
  sublet::leasing::Pipeline pipeline(bundle.rib, graph);
  std::vector<sublet::leasing::LeaseInference> results;
  for (const auto& db : bundle.whois) {
    auto part = pipeline.classify(db);
    results.insert(results.end(), part.begin(), part.end());
  }
  sublet::leasing::save_inferences_csv(w.ref_csv, results);
  // `snapshot write` encodes what it reads back from the CSV.
  auto reread = sublet::leasing::load_inferences_csv(w.ref_csv);
  if (!reread) throw std::runtime_error(reread.error().to_string());
  sublet::snapshot::write_snapshot_file(w.ref_snap, *reread);
  w.csv_digest = fnv1a(read_file(w.ref_csv));
  w.snap_digest = fnv1a(read_file(w.ref_snap));
  w.leaves = results.size();
  std::ofstream(marker) << w.csv_digest << ' ' << w.snap_digest << ' '
                        << w.leaves << '\n';
  if (build_s) *build_s = since(t0);
  return w;
}

std::uint64_t zipf_rank(std::uint64_t& rng, std::uint64_t n) {
  if (n <= 1) return 0;
  const double u = static_cast<double>(next_random(rng) >> 11) * 0x1.0p-53;
  const double x = std::exp(u * std::log(static_cast<double>(n)));
  auto rank = static_cast<std::uint64_t>(x) - (x >= 1.0 ? 1 : 0);
  return rank >= n ? n - 1 : rank;
}

std::uint32_t address_in(const QueryEngine& engine, std::uint32_t idx,
                         std::uint64_t& rng) {
  const auto& row = engine.snapshot().record(idx);
  const std::uint64_t size = 1ull << (32 - row.prefix_len);
  return row.prefix_key + static_cast<std::uint32_t>(next_random(rng) % size);
}

std::string dotted(std::uint32_t addr) {
  return std::to_string(addr >> 24) + "." + std::to_string((addr >> 16) & 255) +
         "." + std::to_string((addr >> 8) & 255) + "." +
         std::to_string(addr & 255);
}

namespace {

/// Run fn(i) for i in [0, n) on a few threads.
template <typename Fn>
void parallel_for(std::size_t n, Fn fn) {
  const unsigned workers =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      for (std::size_t i = w; i < n; i += workers) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

}  // namespace

PointPool make_point_pool(const QueryEngine& engine, std::uint64_t seed) {
  const auto n = static_cast<std::uint32_t>(engine.snapshot().record_count());
  PointPool pool;
  pool.lines.resize(2 * static_cast<std::size_t>(n));
  pool.expected.resize(pool.lines.size());
  pool.rank_to_leaf.resize(n);
  std::uint64_t rng = seed ^ 0x706f696e74ull;
  for (std::uint32_t i = 0; i < n; ++i) pool.rank_to_leaf[i] = i;
  for (std::uint32_t i = n; i > 1; --i) {
    std::swap(pool.rank_to_leaf[i - 1],
              pool.rank_to_leaf[next_random(rng) % i]);
  }
  std::vector<std::uint32_t> addrs(n);
  for (std::uint32_t i = 0; i < n; ++i) addrs[i] = address_in(engine, i, rng);
  parallel_for(n, [&](std::size_t i) {
    const auto& row = engine.snapshot().record(i);
    const auto prefix = engine.snapshot().prefix_of(row);
    pool.lines[2 * i] = "EXACT " + prefix.to_string();
    pool.lines[2 * i + 1] = "LPM " + dotted(addrs[i]) + "/32";
    auto exact = engine.exact(prefix);
    auto lpm = engine.longest_match(
        *sublet::Prefix::make(sublet::Ipv4Addr(addrs[i]), 32));
    const std::string miss = "{\"found\":false}";
    pool.expected[2 * i] = fnv1a(exact ? engine.record_json(*exact) : miss);
    pool.expected[2 * i + 1] =
        fnv1a(lpm ? engine.record_json(lpm->second) : miss);
  });
  return pool;
}

std::uint32_t PointPool::pick(std::uint64_t& rng) const {
  const std::uint32_t leaf = rank_to_leaf[zipf_rank(rng, rank_to_leaf.size())];
  return 2 * leaf + static_cast<std::uint32_t>(next_random(rng) & 1);
}

void encode_results(const QueryEngine& engine,
                    const std::vector<std::uint32_t>& records,
                    std::string& out) {
  namespace wire = sublet::serve::wire;
  for (std::uint32_t idx : records) {
    wire::Result r;
    if (idx == QueryEngine::kNoRecord) {
      r.prefix_len = wire::kMissLen;
    } else {
      const QueryEngine::Brief brief = engine.brief(idx);
      r.prefix_addr = brief.prefix_addr;
      r.prefix_len = brief.prefix_len;
      r.group = brief.group;
      r.flags = brief.leased ? wire::kFlagLeased : 0;
    }
    wire::append_result(out, r);
  }
}

std::vector<PreparedFrame> make_frames(const QueryEngine& engine,
                                       std::uint64_t seed, std::size_t count,
                                       std::size_t per_frame,
                                       double* hit_ratio) {
  namespace wire = sublet::serve::wire;
  const auto n = static_cast<std::uint32_t>(engine.snapshot().record_count());
  std::uint64_t rng = seed ^ 0x6672616d65ull;
  std::vector<PreparedFrame> frames(count);
  std::vector<std::uint32_t> addrs(per_frame), records(per_frame);
  std::uint64_t hits = 0;
  for (std::size_t f = 0; f < count; ++f) {
    for (std::size_t i = 0; i < per_frame; ++i) {
      addrs[i] = (i % 2 == 0)
                     ? address_in(engine, static_cast<std::uint32_t>(
                                              next_random(rng) % n),
                                  rng)
                     : static_cast<std::uint32_t>(next_random(rng));
    }
    engine.lookup_batch(addrs, records);
    PreparedFrame& frame = frames[f];
    wire::FrameHeader h;
    h.opcode = wire::kOpLpmBatch;
    h.request_id = static_cast<std::uint32_t>(f + 1);
    h.payload_len = static_cast<std::uint32_t>(4 * per_frame);
    wire::append_header(frame.request, h);
    for (std::uint32_t a : addrs) {
      char buf[4];
      wire::store_u32le(buf, a);
      frame.request.append(buf, 4);
    }
    encode_results(engine, records, frame.expected_payload);
    frame.lookups = static_cast<std::uint32_t>(per_frame);
    for (std::uint32_t r : records) hits += r != QueryEngine::kNoRecord;
  }
  if (hit_ratio) {
    *hit_ratio =
        static_cast<double>(hits) / static_cast<double>(count * per_frame);
  }
  return frames;
}

std::vector<std::string> serve_argv(const RunConfig& cfg,
                                    const std::string& path, bool catalog) {
  std::vector<std::string> argv{cfg.sublet, "serve"};
  if (catalog) argv.push_back("--catalog");
  argv.push_back(path);
  argv.insert(argv.end(), {"--shards", std::to_string(kShards)});
  return argv;
}

double timed_server_starts(ServerProcess& server,
                           const std::vector<std::string>& argv,
                           const std::string& dir, int starts,
                           const std::function<void()>& prepare,
                           Result& result) {
  std::vector<double> times;
  for (int i = 0; i < starts; ++i) {
    server.stop();
    const auto t0 = Clock::now();
    if (prepare) prepare();
    if (!server.start(argv, dir)) {
      result.fail("server did not start: " + read_file(dir + "/server.log"));
      return 0;
    }
    times.push_back(since(t0));
  }
  return median_of(times);
}

}  // namespace pb
