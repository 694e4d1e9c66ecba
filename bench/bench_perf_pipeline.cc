// P1 — pipeline performance: generation, parse, classification, snapshot,
// and serving throughput as the world grows (google-benchmark).
#include <benchmark/benchmark.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <thread>

#include "asgraph/as_graph.h"
#include "catalog/catalog.h"
#include "catalog/delta.h"
#include "leasing/dataset.h"
#include "leasing/pipeline.h"
#include "loadgen/loadgen.h"
#include "leasing/report.h"
#include "memstats.h"
#include "mrt/rib_file.h"
#include "netbase/prefix_trie.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/engine_state.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "simnet/builder.h"
#include "simnet/emit.h"
#include "snapshot/snapshot.h"
#include "snapshot/writer.h"
#include "util/rng.h"
#include "whoisdb/parse.h"

namespace {

using namespace sublet;

sim::WorldConfig config_for(int permille) {
  sim::WorldConfig config;
  config.seed = 77;
  config.scale = permille / 1000.0;
  return config;
}

/// Emit a world once per scale and cache the directory for the process.
/// The directory name carries the config seed: a cached world emitted by
/// an older run with a different seed must never be silently reused.
const std::string& dataset_for(int permille) {
  static std::map<int, std::string> cache;
  auto it = cache.find(permille);
  if (it != cache.end()) return it->second;
  auto config = config_for(permille);
  std::string dir = "/tmp/sublet-perf-" + std::to_string(config.seed) + "-" +
                    std::to_string(permille);
  if (!std::filesystem::exists(dir + "/.complete")) {
    std::filesystem::remove_all(dir);
    sim::emit_world(sim::build_world(config), dir);
    std::ofstream(dir + "/.complete") << "ok\n";
  }
  return cache.emplace(permille, dir).first->second;
}

// ---------------------------------------------------------------------------
// Trie microbenchmarks for the arena Patricia trie (PrefixTrie) over one
// deterministic corpus and query stream: build cost, exact find, covering
// walk, and node memory at 10k/100k/1M entries.
// ---------------------------------------------------------------------------

/// Deterministic allocation-tree-shaped corpus: /8../24 entries plus /32
/// queries that land inside corpus entries so covering walks do real work.
struct TrieWorkload {
  std::vector<std::pair<Prefix, int>> entries;
  std::vector<Prefix> queries;
};

const TrieWorkload& trie_workload(std::size_t n) {
  static std::map<std::size_t, TrieWorkload> cache;
  auto it = cache.find(n);
  if (it != cache.end()) return it->second;
  Rng rng(4242);
  TrieWorkload w;
  w.entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    int len = static_cast<int>(rng.next_in(8, 24));
    auto addr = Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64()));
    w.entries.emplace_back(*Prefix::make(addr, len), static_cast<int>(i));
  }
  w.queries.reserve(8192);
  for (std::size_t q = 0; q < 8192; ++q) {
    const Prefix& base =
        w.entries[static_cast<std::size_t>(rng.next_u64()) % n].first;
    std::uint32_t offset = static_cast<std::uint32_t>(
        rng.next_u64() & (base.size() - 1));
    w.queries.push_back(
        *Prefix::make(Ipv4Addr(base.network().value() + offset), 32));
  }
  return cache.emplace(n, std::move(w)).first->second;
}

/// Lookup benchmarks measure the trie as deployed: freeze-built (the
/// AllocationTree production path, which lays nodes out in DFS pre-order
/// for locality).
const PrefixTrie<int>& lookup_trie(std::size_t n) {
  static std::map<std::size_t, PrefixTrie<int>> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, PrefixTrie<int>::freeze(trie_workload(n).entries))
             .first;
  }
  return it->second;
}

void BM_TrieBuildArena(benchmark::State& state) {
  const auto& workload = trie_workload(static_cast<std::size_t>(state.range(0)));
  std::size_t nodes = 0, bytes = 0;
  for (auto _ : state) {
    PrefixTrie<int> trie;
    for (const auto& [prefix, value] : workload.entries) {
      trie.insert(prefix, value);
    }
    nodes = trie.node_count();
    bytes = trie.memory_bytes();
    benchmark::DoNotOptimize(trie);
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["mem_mb"] = static_cast<double>(bytes) / 1e6;
  state.counters["peak_rss_mb"] = bench::peak_rss_megabytes();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(workload.entries.size()));
}
BENCHMARK(BM_TrieBuildArena)
    ->Arg(10000)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_TrieBuildFreeze(benchmark::State& state) {
  const auto& workload = trie_workload(static_cast<std::size_t>(state.range(0)));
  std::size_t nodes = 0, bytes = 0;
  for (auto _ : state) {
    auto trie = PrefixTrie<int>::freeze(workload.entries);
    nodes = trie.node_count();
    bytes = trie.memory_bytes();
    benchmark::DoNotOptimize(trie);
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["mem_mb"] = static_cast<double>(bytes) / 1e6;
  state.counters["peak_rss_mb"] = bench::peak_rss_megabytes();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(workload.entries.size()));
}
BENCHMARK(BM_TrieBuildFreeze)
    ->Arg(10000)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_TrieExactFindArena(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto& workload = trie_workload(n);
  const PrefixTrie<int>& trie = lookup_trie(n);
  std::size_t i = 0;
  for (auto _ : state) {
    const int* hit = trie.find(workload.entries[i % n].first);
    benchmark::DoNotOptimize(hit);
    ++i;
  }
  state.counters["peak_rss_mb"] = bench::peak_rss_megabytes();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TrieExactFindArena)->Arg(10000)->Arg(100000)->Arg(1000000);

/// One most-specific + one least-specific covering walk per iteration on a
/// /32 query — the shape of the paper's step-4 lookups (exact origin plus
/// root-origin fallback).
void BM_TrieCoveringWalkArena(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto& workload = trie_workload(n);
  const PrefixTrie<int>& trie = lookup_trie(n);
  std::size_t i = 0;
  for (auto _ : state) {
    const Prefix& q = workload.queries[i % workload.queries.size()];
    auto most = trie.most_specific_covering(q);
    auto least = trie.least_specific_covering(q);
    benchmark::DoNotOptimize(most);
    benchmark::DoNotOptimize(least);
    ++i;
  }
  state.counters["nodes"] = static_cast<double>(trie.node_count());
  state.counters["mem_mb"] = static_cast<double>(trie.memory_bytes()) / 1e6;
  state.counters["peak_rss_mb"] = bench::peak_rss_megabytes();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TrieCoveringWalkArena)->Arg(10000)->Arg(100000)->Arg(1000000);

// ---------------------------------------------------------------------------
// DIR-24-8 stride table (docs/PERF.md): single-address LPM through the flat
// table, and the prefetched batch entry point vs a plain lookup loop.
// ---------------------------------------------------------------------------

const PrefixTrie<int>& stride_trie(std::size_t n) {
  static std::map<std::size_t, PrefixTrie<int>> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, PrefixTrie<int>::freeze(trie_workload(n).entries,
                                                  TrieStride::kBuild))
             .first;
  }
  return it->second;
}

std::vector<std::uint32_t> stride_addrs(std::size_t n) {
  std::vector<std::uint32_t> addrs;
  const auto& queries = trie_workload(n).queries;
  addrs.reserve(queries.size());
  for (const Prefix& q : queries) addrs.push_back(q.network().value());
  return addrs;
}

/// Single-address LPM through the stride table. The ">= 5M lookups/s
/// single-thread" acceptance bar is enforced here: the rate is re-measured
/// outside the benchmark loop (best of three passes over the query stream)
/// so the judgment is not polluted by per-iteration timer overhead.
void BM_LpmStride(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const PrefixTrie<int>& trie = stride_trie(n);
  const std::vector<std::uint32_t> addrs = stride_addrs(n);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.lpm_handle(addrs[i % addrs.size()]));
    ++i;
  }
  using clock = std::chrono::steady_clock;
  constexpr int kPasses = 16;  // ~128k lookups per timed sample
  double best_ns = 1e18;
  for (int round = 0; round < 3; ++round) {
    std::uint64_t sink = 0;
    auto t0 = clock::now();
    for (int pass = 0; pass < kPasses; ++pass) {
      for (std::uint32_t addr : addrs) sink += trie.lpm_handle(addr);
    }
    auto t1 = clock::now();
    benchmark::DoNotOptimize(sink);
    best_ns = std::min(
        best_ns,
        static_cast<double>(std::chrono::nanoseconds(t1 - t0).count()));
  }
  const double lookups = static_cast<double>(kPasses) *
                         static_cast<double>(addrs.size());
  const double rate = lookups / (best_ns / 1e9);
  state.counters["lookups_per_s"] = rate;
  state.counters["mem_mb"] = static_cast<double>(trie.memory_bytes()) / 1e6;
  state.counters["peak_rss_mb"] = bench::peak_rss_megabytes();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  if (rate < 5e6) {
    state.SkipWithError("stride LPM is under 5M lookups/s single-thread");
  }
}
BENCHMARK(BM_LpmStride)->Arg(100000)->Arg(1000000);

/// Batched prefetched lookups vs the same addresses through the
/// single-lookup loop. The speedup counter is a median of paired rounds
/// (alternating order) so scheduler noise on a small box hits both sides
/// of each pair; the acceptance check — batch must not be slower — runs at
/// the largest batch size, where prefetch has the most misses to hide.
void BM_LpmBatch(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  const PrefixTrie<int>& trie = stride_trie(100000);
  // A ~1M-address uniform pool touches ~1M distinct first-level table
  // lines (~64 MiB) as the samples stream through it — far beyond L2, so
  // the timed passes measure the cache-miss regime batching exists for,
  // not a loop over a few thousand hot lines (where a prefetch is pure
  // overhead and always loses).
  constexpr std::size_t kPool = std::size_t{1} << 20;
  static std::vector<std::uint32_t> pool;
  if (pool.empty()) {
    pool.resize(kPool);
    Rng rng(314159);
    for (auto& a : pool) a = static_cast<std::uint32_t>(rng.next_u64());
  }
  std::vector<std::uint32_t> out(batch);
  std::size_t cursor = 0;
  auto next_span = [&] {
    if (cursor + batch > kPool) cursor = 0;
    std::span<const std::uint32_t> s(pool.data() + cursor, batch);
    cursor += batch;
    return s;
  };
  for (auto _ : state) {
    trie.lookup_batch(next_span(), out);
    benchmark::DoNotOptimize(out.data());
  }
  using clock = std::chrono::steady_clock;
  // Each timed sample resolves 64k addresses from a fresh pool region;
  // chunking keeps the per-call span at the benchmarked batch size.
  constexpr std::size_t kLookupsPerSample = std::size_t{1} << 16;
  const std::size_t chunks = kLookupsPerSample / batch;
  auto batch_ns = [&] {
    auto t0 = clock::now();
    for (std::size_t c = 0; c < chunks; ++c) {
      trie.lookup_batch(next_span(), out);
    }
    auto t1 = clock::now();
    benchmark::DoNotOptimize(out.data());
    return static_cast<double>(std::chrono::nanoseconds(t1 - t0).count());
  };
  auto single_ns = [&] {
    auto t0 = clock::now();
    for (std::size_t c = 0; c < chunks; ++c) {
      std::span<const std::uint32_t> s = next_span();
      for (std::size_t j = 0; j < batch; ++j) {
        out[j] = trie.lpm_handle(s[j]);
      }
    }
    auto t1 = clock::now();
    benchmark::DoNotOptimize(out.data());
    return static_cast<double>(std::chrono::nanoseconds(t1 - t0).count());
  };
  constexpr int kRounds = 41;
  std::vector<double> ratios;
  double best_batch = 1e18, best_single = 1e18;
  for (int round = 0; round < kRounds; ++round) {
    double b, s;
    if (round % 2 == 0) {
      b = batch_ns();
      s = single_ns();
    } else {
      s = single_ns();
      b = batch_ns();
    }
    ratios.push_back(s / b);
    best_batch = std::min(best_batch, b);
    best_single = std::min(best_single, s);
  }
  std::sort(ratios.begin(), ratios.end());
  const double speedup = ratios[ratios.size() / 2];
  const double count = static_cast<double>(kLookupsPerSample);
  state.counters["batch_ns_per_lookup"] = best_batch / count;
  state.counters["single_ns_per_lookup"] = best_single / count;
  state.counters["batch_speedup"] = speedup;
  state.counters["peak_rss_mb"] = bench::peak_rss_megabytes();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
  if (state.range(0) >= 4096 && speedup < 1.0) {
    state.SkipWithError("batched lookup is slower than the single loop");
  }
}
BENCHMARK(BM_LpmBatch)->Arg(256)->Arg(4096);

void BM_WorldGeneration(benchmark::State& state) {
  auto config = config_for(static_cast<int>(state.range(0)));
  std::size_t leaves = 0;
  for (auto _ : state) {
    sim::World world = sim::build_world(config);
    leaves = world.leaves.size();
    benchmark::DoNotOptimize(world);
  }
  state.counters["leaves"] = static_cast<double>(leaves);
  state.counters["peak_rss_mb"] = bench::peak_rss_megabytes();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(leaves));
}
BENCHMARK(BM_WorldGeneration)->Arg(20)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond);

/// Args: {permille, threads}.
void BM_WhoisParse(benchmark::State& state) {
  std::string path =
      dataset_for(static_cast<int>(state.range(0))) + "/whois/ripe.db";
  auto threads = static_cast<unsigned>(state.range(1));
  std::size_t blocks = 0;
  for (auto _ : state) {
    auto db = whois::load_whois_file(path, whois::Rir::kRipe, nullptr,
                                     threads);
    blocks = db.block_count();
    benchmark::DoNotOptimize(db);
  }
  state.counters["blocks"] = static_cast<double>(blocks);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["peak_rss_mb"] = bench::peak_rss_megabytes();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(blocks));
}
BENCHMARK(BM_WhoisParse)
    ->Args({20, 1})
    ->Args({100, 1})
    ->Args({100, 2})
    ->Args({100, 4})
    ->Unit(benchmark::kMillisecond);

void BM_MrtParse(benchmark::State& state) {
  std::string path =
      dataset_for(static_cast<int>(state.range(0))) + "/bgp/rib.0.t0.mrt";
  std::size_t bytes = std::filesystem::file_size(path);
  std::size_t prefixes = 0;
  for (auto _ : state) {
    auto snapshot = mrt::read_rib_file(path);
    prefixes = snapshot ? snapshot->records.size() : 0;
    benchmark::DoNotOptimize(snapshot);
  }
  state.counters["prefixes"] = static_cast<double>(prefixes);
  state.counters["peak_rss_mb"] = bench::peak_rss_megabytes();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_MrtParse)->Arg(20)->Arg(100)->Unit(benchmark::kMillisecond);

/// Args: {permille, threads}.
void BM_Classify(benchmark::State& state) {
  std::string dir = dataset_for(static_cast<int>(state.range(0)));
  auto bundle = leasing::load_dataset(dir);
  asgraph::AsGraph graph(&bundle.as_rel, &bundle.as2org);
  leasing::PipelineOptions options;
  options.threads = static_cast<unsigned>(state.range(1));
  std::size_t classified = 0;
  for (auto _ : state) {
    leasing::Pipeline pipeline(bundle.rib, graph, options);
    classified = 0;
    for (const whois::WhoisDb& db : bundle.whois) {
      classified += pipeline.classify(db).size();
    }
    benchmark::DoNotOptimize(classified);
  }
  state.counters["leaves"] = static_cast<double>(classified);
  state.counters["threads"] = static_cast<double>(options.threads);
  state.counters["peak_rss_mb"] = bench::peak_rss_megabytes();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(classified));
}
BENCHMARK(BM_Classify)
    ->Args({20, 1})
    ->Args({50, 1})
    ->Args({100, 1})
    ->Args({100, 2})
    ->Args({100, 4})
    ->Unit(benchmark::kMillisecond);

/// Args: {permille, threads} — the whole bundle load (five WHOIS files +
/// all RIB collectors as concurrent tasks).
void BM_DatasetLoad(benchmark::State& state) {
  std::string dir = dataset_for(static_cast<int>(state.range(0)));
  leasing::LoadOptions options;
  options.threads = static_cast<unsigned>(state.range(1));
  std::size_t prefixes = 0;
  for (auto _ : state) {
    auto bundle = leasing::load_dataset(dir, options);
    prefixes = bundle.rib.prefix_count();
    benchmark::DoNotOptimize(bundle);
  }
  state.counters["prefixes"] = static_cast<double>(prefixes);
  state.counters["threads"] = static_cast<double>(options.threads);
  state.counters["peak_rss_mb"] = bench::peak_rss_megabytes();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DatasetLoad)
    ->Args({100, 1})
    ->Args({100, 4})
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Snapshot + serving: pack/load throughput of the binary inference snapshot
// (vs re-parsing the CSV artifact) and loopback queries/sec as the server's
// handler-thread count grows (docs/SERVING.md).
// ---------------------------------------------------------------------------

/// Deterministic classified-world-shaped records: unique /24 leaves with
/// realistically repetitive org/netname/maintainer strings.
std::vector<leasing::LeaseInference> synthetic_inferences(std::size_t n) {
  std::vector<leasing::LeaseInference> out;
  out.reserve(n);
  Rng rng(20240406);
  for (std::size_t i = 0; i < n; ++i) {
    leasing::LeaseInference r;
    r.prefix = *Prefix::make(
        Ipv4Addr(static_cast<std::uint32_t>(i) << 8), 24);
    r.root_prefix = *Prefix::make(
        Ipv4Addr((static_cast<std::uint32_t>(i) << 8) & 0xFFFF0000u), 16);
    r.rir = static_cast<whois::Rir>(i % 5);
    r.group = leasing::kAllInferenceGroups[rng.next_u64() %
                                           leasing::kAllInferenceGroups
                                               .size()];
    r.holder_org = "ORG-BENCH-" + std::to_string(rng.next_u64() % 997);
    r.holder_asns = {Asn(static_cast<std::uint32_t>(
        64512 + rng.next_u64() % 1024))};
    r.leaf_origins = {Asn(static_cast<std::uint32_t>(
        65000 + rng.next_u64() % 512))};
    r.root_origins = r.holder_asns;
    r.leaf_maintainers = {"MNT-" + std::to_string(rng.next_u64() % 53)};
    r.netname = "NET-" + std::to_string(rng.next_u64() % 499);
    out.push_back(std::move(r));
  }
  return out;
}

struct SnapshotBenchFiles {
  std::string csv;
  std::string snap;
};

/// Write the CSV artifact and the snapshot once per (count, format version)
/// and cache them for the process, mirroring dataset_for().
const SnapshotBenchFiles& snapshot_bench_files(std::size_t n) {
  static std::map<std::size_t, SnapshotBenchFiles> cache;
  auto it = cache.find(n);
  if (it != cache.end()) return it->second;
  std::string base = "/tmp/sublet-snapbench-v" +
                     std::to_string(snapshot::kVersion) + "-" +
                     std::to_string(n);
  SnapshotBenchFiles files{base + ".csv", base + ".snap"};
  if (!std::filesystem::exists(base + ".complete")) {
    auto inferences = synthetic_inferences(n);
    leasing::save_inferences_csv(files.csv, inferences);
    snapshot::write_snapshot_file(files.snap, inferences);
    std::ofstream(base + ".complete") << "ok\n";
  }
  return cache.emplace(n, std::move(files)).first->second;
}

void BM_SnapshotWrite(benchmark::State& state) {
  auto inferences = synthetic_inferences(
      static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto encoded = snapshot::encode_snapshot(inferences);
    bytes = encoded.size();
    benchmark::DoNotOptimize(encoded);
  }
  state.counters["snap_mb"] = static_cast<double>(bytes) / 1e6;
  state.counters["peak_rss_mb"] = bench::peak_rss_megabytes();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inferences.size()));
}
BENCHMARK(BM_SnapshotWrite)
    ->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

/// Loading the snapshot must beat re-parsing the CSV artifact by >= 10x at
/// 100k records — the acceptance bar for the serving layer. The counters
/// record both sides so BENCH_perf_pipeline.json carries the margin.
void BM_SnapshotLoadVsCsv(benchmark::State& state) {
  const auto& files =
      snapshot_bench_files(static_cast<std::size_t>(state.range(0)));
  std::size_t records = 0;
  for (auto _ : state) {
    auto snap = snapshot::Snapshot::open(files.snap,
                                         snapshot::Snapshot::Mode::kRead);
    if (!snap) {
      state.SkipWithError("snapshot load failed");
      return;
    }
    records = snap->record_count();
    benchmark::DoNotOptimize(snap);
  }
  using clock = std::chrono::steady_clock;
  // Best-of-three wall times for each side, measured outside the benchmark
  // loop so the ratio is not polluted by timer overhead.
  double snap_ns = 1e18, csv_ns = 1e18;
  for (int round = 0; round < 3; ++round) {
    auto t0 = clock::now();
    auto snap = snapshot::Snapshot::open(files.snap,
                                         snapshot::Snapshot::Mode::kRead);
    auto t1 = clock::now();
    benchmark::DoNotOptimize(snap);
    snap_ns = std::min(
        snap_ns, static_cast<double>(
                     std::chrono::nanoseconds(t1 - t0).count()));
    auto t2 = clock::now();
    auto parsed = leasing::load_inferences_csv(files.csv);
    auto t3 = clock::now();
    if (!parsed || parsed->size() != records) {
      state.SkipWithError("CSV artifact failed to parse");
      return;
    }
    benchmark::DoNotOptimize(parsed);
    csv_ns = std::min(
        csv_ns, static_cast<double>(
                    std::chrono::nanoseconds(t3 - t2).count()));
  }
  double speedup = csv_ns / snap_ns;
  state.counters["records"] = static_cast<double>(records);
  state.counters["csv_parse_ms"] = csv_ns / 1e6;
  state.counters["snap_load_ms"] = snap_ns / 1e6;
  state.counters["speedup_vs_csv"] = speedup;
  state.counters["peak_rss_mb"] = bench::peak_rss_megabytes();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records));
  if (state.range(0) >= 100000 && speedup < 10.0) {
    state.SkipWithError("snapshot load is not >= 10x faster than CSV parse");
  }
}
BENCHMARK(BM_SnapshotLoadVsCsv)
    ->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

struct CatalogBenchFixture {
  std::string dir;          ///< catalog directory (1 full + 9 deltas)
  std::string full_latest;  ///< full snapshot of the newest epoch
  std::vector<std::uint32_t> epochs;
  std::string probe_prefix;  ///< flips group every epoch (HISTORY probe)
};

/// Build a ten-epoch catalog once per (count, format version) and cache it
/// for the process: epoch 0 is the full anchor, each later epoch mutates
/// ~1% of the records plus the probe record, so every append stays under
/// the delta-size guard. A standalone full snapshot of the newest epoch is
/// written next to it for the delta-apply-vs-full-load comparison.
const CatalogBenchFixture& catalog_bench_fixture(std::size_t n) {
  static std::map<std::size_t, CatalogBenchFixture> cache;
  auto it = cache.find(n);
  if (it != cache.end()) return it->second;
  constexpr std::uint32_t kEpoch0 = 1704067200;  // 2024-01-01
  constexpr std::uint32_t kStep = 2592000;       // 30 days
  constexpr int kEpochs = 10;
  std::string base = "/tmp/sublet-catbench-v" +
                     std::to_string(snapshot::kVersion) + "-" +
                     std::to_string(n);
  CatalogBenchFixture fx;
  fx.dir = base + ".catalog";
  fx.full_latest = base + "-latest.snap";
  for (int k = 0; k < kEpochs; ++k) {
    fx.epochs.push_back(kEpoch0 + static_cast<std::uint32_t>(k) * kStep);
  }
  fx.probe_prefix =
      Prefix::make(Ipv4Addr(1u << 8), 24)->to_string();  // record 1
  if (!std::filesystem::exists(base + ".complete")) {
    std::filesystem::remove_all(fx.dir);
    auto inferences = synthetic_inferences(n);
    if (!catalog::catalog_init(fx.dir, fx.epochs[0], inferences)) {
      std::abort();
    }
    for (int k = 1; k < kEpochs; ++k) {
      for (std::size_t i = static_cast<std::size_t>(k); i < inferences.size();
           i += 100) {
        auto& r = inferences[i];
        r.group = r.group == leasing::InferenceGroup::kLeasedNoRoot
                      ? leasing::InferenceGroup::kIspCustomer
                      : leasing::InferenceGroup::kLeasedNoRoot;
        r.netname = "NET-E" + std::to_string(k);
      }
      inferences[1].group = (k % 2) != 0
                                ? leasing::InferenceGroup::kLeasedNoRoot
                                : leasing::InferenceGroup::kIspCustomer;
      if (!catalog::catalog_append(fx.dir, fx.epochs[k], inferences)) {
        std::abort();
      }
    }
    snapshot::write_snapshot_file(
        fx.full_latest, catalog::canonical_inferences(std::move(inferences)));
    std::ofstream(base + ".complete") << "ok\n";
  }
  return cache.emplace(n, std::move(fx)).first->second;
}

/// Cold-chain materialization of the newest catalog epoch: Catalog::open
/// plus materialize() loads the full anchor and applies nine deltas. The
/// counters compare one incremental delta apply (base chain already hot)
/// against a cold full-snapshot EngineState::load of the same epoch; the
/// acceptance bar is delta apply >= 5x faster at 100k records
/// (docs/TIMETRAVEL.md).
void BM_CatalogMaterialize(benchmark::State& state) {
  const auto& fx =
      catalog_bench_fixture(static_cast<std::size_t>(state.range(0)));
  std::size_t records = 0;
  for (auto _ : state) {
    auto cat = catalog::Catalog::open(fx.dir);
    if (!cat) {
      state.SkipWithError("catalog open failed");
      return;
    }
    auto st = (*cat)->materialize(fx.epochs.back());
    if (!st) {
      state.SkipWithError("materialize failed");
      return;
    }
    records = (*st)->snapshot().record_count();
    benchmark::DoNotOptimize(st);
  }
  using clock = std::chrono::steady_clock;
  // Best-of-three wall times for each side, measured outside the benchmark
  // loop: one delta apply on top of a hot base chain vs a cold full load.
  // The apply targets a history epoch — history epochs skip the DIR-24-8
  // stride table by design (only the latest epoch builds it), while the full
  // load is the standard single-snapshot serving path including it, so the
  // ratio states exactly what time travel buys over reloading snapshots.
  double delta_ns = 1e18, full_ns = 1e18;
  for (int round = 0; round < 3; ++round) {
    auto cat = catalog::Catalog::open(fx.dir);
    if (!cat || !(*cat)->materialize(fx.epochs[fx.epochs.size() - 3])) {
      state.SkipWithError("catalog warmup failed");
      return;
    }
    auto t0 = clock::now();
    auto st = (*cat)->materialize(fx.epochs[fx.epochs.size() - 2]);
    auto t1 = clock::now();
    if (!st) {
      state.SkipWithError("delta apply failed");
      return;
    }
    benchmark::DoNotOptimize(st);
    delta_ns = std::min(
        delta_ns,
        static_cast<double>(std::chrono::nanoseconds(t1 - t0).count()));
    auto t2 = clock::now();
    auto full = serve::EngineState::load(fx.full_latest);
    auto t3 = clock::now();
    if (!full || (*full)->snapshot().record_count() != records) {
      state.SkipWithError("full snapshot load failed");
      return;
    }
    benchmark::DoNotOptimize(full);
    full_ns = std::min(
        full_ns,
        static_cast<double>(std::chrono::nanoseconds(t3 - t2).count()));
  }
  double speedup = full_ns / delta_ns;
  state.counters["records"] = static_cast<double>(records);
  state.counters["epochs"] = static_cast<double>(fx.epochs.size());
  state.counters["delta_apply_ms"] = delta_ns / 1e6;
  state.counters["full_load_ms"] = full_ns / 1e6;
  state.counters["delta_speedup"] = speedup;
  state.counters["peak_rss_mb"] = bench::peak_rss_megabytes();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records));
  if (state.range(0) >= 100000 && speedup < 5.0) {
    state.SkipWithError(
        "delta apply is not >= 5x faster than a cold full-snapshot load");
  }
}
BENCHMARK(BM_CatalogMaterialize)
    ->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

/// HISTORY replay across the ten-epoch catalog with every epoch hot in
/// the LRU: per-iteration cost is ten exact lookups plus run coalescing
/// in history_json. The probe prefix flips groups every epoch, so the
/// coalescer does maximal work.
void BM_HistoryQuery(benchmark::State& state) {
  const auto& fx =
      catalog_bench_fixture(static_cast<std::size_t>(state.range(0)));
  auto opened = catalog::Catalog::open(
      fx.dir, catalog::CatalogOptions{.lru_capacity = 16});
  if (!opened) {
    state.SkipWithError("catalog open failed");
    return;
  }
  auto source = std::shared_ptr<serve::EpochSource>(std::move(*opened));
  auto initial = source->epoch_at(0);
  if (!initial) {
    state.SkipWithError("latest epoch failed to materialize");
    return;
  }
  serve::QueryServer server(source, std::move(*initial),
                            serve::QueryServer::Options{.port = 0,
                                                        .shards = 1});
  const std::string req = "HISTORY " + fx.probe_prefix;
  std::string warm = server.handle_request(req);  // materializes all epochs
  if (warm.find("\"epochs\":10") == std::string::npos) {
    state.SkipWithError("HISTORY warmup returned unexpected shape");
    return;
  }
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::string resp = server.handle_request(req);
    bytes = resp.size();
    benchmark::DoNotOptimize(resp);
  }
  double transitions = 0;
  if (auto pos = warm.find("\"transitions\":"); pos != std::string::npos) {
    transitions = std::atof(warm.c_str() + pos + 14);
  }
  state.counters["epochs"] = static_cast<double>(fx.epochs.size());
  state.counters["transitions"] = transitions;
  state.counters["resp_bytes"] = static_cast<double>(bytes);
  state.counters["peak_rss_mb"] = bench::peak_rss_megabytes();
  // One HISTORY answer consults every epoch.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.epochs.size()));
}
BENCHMARK(BM_HistoryQuery)
    ->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

/// Arg: server event-loop shards. Eight loopback clients fan requests at the
/// server; items/sec is end-to-end queries/sec including the TCP hop.
void BM_ServeQueries(benchmark::State& state) {
  const auto& files = snapshot_bench_files(100000);
  auto engine_state = serve::EngineState::load(files.snap);
  if (!engine_state) {
    state.SkipWithError("snapshot load failed");
    return;
  }
  serve::QueryServer::Options options;
  options.shards = static_cast<unsigned>(state.range(0));
  serve::QueryServer server(*engine_state, options);
  auto port = server.start();
  if (!port) {
    state.SkipWithError("server failed to start");
    return;
  }
  // Query stream: EXACT hits over a cycle of known leaves.
  std::vector<std::string> queries;
  for (std::uint32_t i = 0; i < 1024; ++i) {
    queries.push_back(
        "EXACT " +
        Prefix::make(Ipv4Addr((i * 97u % 100000u) << 8), 24)->to_string());
  }
  // Each worker opens its own connection per iteration and closes it when
  // done — required for the threads=1 (inline pool) server, which serves
  // one connection to completion before accepting the next.
  constexpr int kClients = 8;
  constexpr int kPerClient = 128;
  std::atomic<int> failures{0};
  for (auto _ : state) {
    std::vector<std::thread> workers;
    workers.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      workers.emplace_back([&, c] {
        auto client = serve::QueryClient::connect("127.0.0.1", *port);
        if (!client) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        for (int i = 0; i < kPerClient; ++i) {
          auto response = client->request(
              queries[static_cast<std::size_t>(c * kPerClient + i) %
                      queries.size()]);
          if (!response) {
            failures.fetch_add(1, std::memory_order_relaxed);
            return;
          }
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  server.stop();
  if (failures.load() != 0) {
    state.SkipWithError("request round trips failed");
    return;
  }
  state.counters["server_threads"] =
      static_cast<double>(state.range(0));
  state.counters["clients"] = kClients;
  state.counters["peak_rss_mb"] = bench::peak_rss_megabytes();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kClients * kPerClient);
}
BENCHMARK(BM_ServeQueries)
    ->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Query latency while the engine is hot-swapped underneath the clients:
/// 8 hammer clients stream EXACT hits as the main thread RELOADs between a
/// 10k- and a 100k-record snapshot every iteration. p99_us covers the
/// queries issued *during* the swaps — the acceptance number for the
/// RCU-style reload (a failed query or reload aborts the bench).
void BM_ServeReloadUnderLoad(benchmark::State& state) {
  const auto& small = snapshot_bench_files(10000);
  const auto& large = snapshot_bench_files(100000);
  auto engine_state = serve::EngineState::load(small.snap);
  if (!engine_state) {
    state.SkipWithError("snapshot load failed");
    return;
  }
  serve::QueryServer::Options options;
  // Thread-per-connection: 8 persistent hammer clients + the control
  // connection need headroom so a RELOAD is never queued behind them.
  options.shards = 12;
  serve::QueryServer server(*engine_state, options);
  auto port = server.start();
  if (!port) {
    state.SkipWithError("server failed to start");
    return;
  }
  // Keys present in BOTH snapshots (records 0..9999 are identical), so
  // every query must hit regardless of which generation answers it.
  std::vector<std::string> queries;
  for (std::uint32_t i = 0; i < 1024; ++i) {
    queries.push_back(
        "EXACT " +
        Prefix::make(Ipv4Addr((i * 97u % 10000u) << 8), 24)->to_string());
  }
  constexpr int kClients = 8;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<std::int64_t> queries_sent{0};
  // Latency histogram in 1us buckets up to 100ms, shared by the hammers.
  constexpr std::size_t kBuckets = 100000;
  std::vector<std::atomic<std::uint32_t>> histogram(kBuckets);
  std::vector<std::thread> hammers;
  hammers.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    hammers.emplace_back([&, c] {
      auto client = serve::QueryClient::connect("127.0.0.1", *port);
      if (!client) {
        failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      std::size_t i = static_cast<std::size_t>(c) * 131;
      while (!done.load(std::memory_order_relaxed)) {
        auto t0 = std::chrono::steady_clock::now();
        auto response = client->request(queries[i++ % queries.size()]);
        auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
        if (!response ||
            response->find("\"found\":true") == std::string::npos) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        queries_sent.fetch_add(1, std::memory_order_relaxed);
        auto bucket = std::min<std::size_t>(
            static_cast<std::size_t>(us), kBuckets - 1);
        histogram[bucket].fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  auto control = serve::QueryClient::connect("127.0.0.1", *port);
  if (!control) {
    done.store(true);
    for (auto& h : hammers) h.join();
    state.SkipWithError("control client failed to connect");
    return;
  }
  std::uint64_t reloads = 0;
  bool to_large = true;
  for (auto _ : state) {
    auto ack = control->request(
        "RELOAD " + (to_large ? large.snap : small.snap));
    if (!ack || ack->find("\"ok\":true") == std::string::npos) {
      done.store(true);
      for (auto& h : hammers) h.join();
      state.SkipWithError("RELOAD failed under load");
      return;
    }
    to_large = !to_large;
    ++reloads;
  }
  done.store(true);
  for (auto& h : hammers) h.join();
  server.stop();
  if (failures.load() != 0) {
    state.SkipWithError("queries failed during reload");
    return;
  }
  // p99 from the shared histogram.
  std::uint64_t total = 0;
  for (const auto& b : histogram) {
    total += b.load(std::memory_order_relaxed);
  }
  double p99 = 0.0;
  if (total > 0) {
    std::uint64_t target = total - total / 100;  // ceil-ish 99th
    std::uint64_t seen = 0;
    for (std::size_t us = 0; us < kBuckets; ++us) {
      seen += histogram[us].load(std::memory_order_relaxed);
      if (seen >= target) {
        p99 = static_cast<double>(us);
        break;
      }
    }
  }
  state.counters["reloads"] = static_cast<double>(reloads);
  state.counters["queries_during_swaps"] =
      static_cast<double>(queries_sent.load());
  state.counters["hammer_p99_us"] = p99;
  state.counters["peak_rss_mb"] = bench::peak_rss_megabytes();
  state.SetItemsProcessed(static_cast<std::int64_t>(reloads));
}
BENCHMARK(BM_ServeReloadUnderLoad)->Unit(benchmark::kMillisecond);

/// Arg: event-loop shards. One pipelined client streams binary LPM frames
/// (512 addresses each, 4 frames in flight); items/sec is lookups/sec
/// end-to-end. A text-protocol baseline is timed outside the benchmark
/// loop on the same server and the ratio recorded; the acceptance gate —
/// binary >= 10x the text BM_ServeQueries throughput — is enforced at 8
/// shards (one frame replaces hundreds of per-line JSON round trips).
void BM_ServeBinaryBatch(benchmark::State& state) {
  const auto& files = snapshot_bench_files(100000);
  auto engine_state = serve::EngineState::load(files.snap);
  if (!engine_state) {
    state.SkipWithError("snapshot load failed");
    return;
  }
  serve::QueryServer::Options options;
  options.shards = static_cast<unsigned>(state.range(0));
  serve::QueryServer server(*engine_state, options);
  auto port = server.start();
  if (!port) {
    state.SkipWithError("server failed to start");
    return;
  }
  constexpr std::size_t kFrameAddrs = 512;
  constexpr std::size_t kDepth = 4;
  std::vector<std::vector<std::uint32_t>> batches(kDepth);
  for (std::size_t k = 0; k < kDepth; ++k) {
    for (std::size_t i = 0; i < kFrameAddrs; ++i) {
      std::uint32_t record =
          static_cast<std::uint32_t>((k * kFrameAddrs + i) * 97u % 100000u);
      batches[k].push_back((record << 8) | 1u);  // inside a known /24 leaf
    }
  }
  auto client = serve::QueryClient::connect("127.0.0.1", *port);
  if (!client) {
    state.SkipWithError("client failed to connect");
    return;
  }
  bool failed = false;
  for (auto _ : state) {
    auto responses = client->pipeline_binary(batches);
    if (!responses || responses->size() != kDepth) {
      failed = true;
      break;
    }
    benchmark::DoNotOptimize(responses);
  }
  if (failed) {
    server.stop();
    state.SkipWithError("pipelined binary round trips failed");
    return;
  }
  // Paired baseline, timed outside the benchmark loop: text EXACT round
  // trips (the BM_ServeQueries shape) vs pipelined binary lookups on the
  // very same server and connection.
  using clock = std::chrono::steady_clock;
  constexpr int kTextProbe = 512;
  std::vector<std::string> queries;
  for (std::uint32_t i = 0; i < 1024; ++i) {
    queries.push_back(
        "EXACT " +
        Prefix::make(Ipv4Addr((i * 97u % 100000u) << 8), 24)->to_string());
  }
  auto t0 = clock::now();
  for (int i = 0; i < kTextProbe; ++i) {
    auto response = client->request(queries[static_cast<std::size_t>(i) %
                                            queries.size()]);
    if (!response) {
      server.stop();
      state.SkipWithError("text baseline round trip failed");
      return;
    }
  }
  auto t1 = clock::now();
  constexpr int kBinProbe = 16;
  for (int r = 0; r < kBinProbe; ++r) {
    auto responses = client->pipeline_binary(batches);
    if (!responses) {
      server.stop();
      state.SkipWithError("binary probe round trip failed");
      return;
    }
    benchmark::DoNotOptimize(responses);
  }
  auto t2 = clock::now();
  server.stop();
  const double text_ns =
      static_cast<double>(std::chrono::nanoseconds(t1 - t0).count());
  const double bin_ns =
      static_cast<double>(std::chrono::nanoseconds(t2 - t1).count());
  const double text_qps = kTextProbe / (text_ns / 1e9);
  const double bin_qps =
      static_cast<double>(kBinProbe * kDepth * kFrameAddrs) / (bin_ns / 1e9);
  const double speedup = bin_qps / text_qps;
  state.counters["shards"] = static_cast<double>(state.range(0));
  state.counters["frame_addrs"] = kFrameAddrs;
  state.counters["pipeline_depth"] = kDepth;
  state.counters["text_qps"] = text_qps;
  state.counters["bin_lookups_per_s"] = bin_qps;
  state.counters["speedup_vs_text"] = speedup;
  state.counters["peak_rss_mb"] = bench::peak_rss_megabytes();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kDepth * kFrameAddrs));
  if (state.range(0) >= 8 && speedup < 10.0) {
    state.SkipWithError(
        "binary batch is not >= 10x the text protocol at 8 shards");
  }
}
BENCHMARK(BM_ServeBinaryBatch)
    ->Arg(1)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Connection-scaling soak: request p99 on a live connection while the
/// server holds ~10k idle connections. The idle fds live in a forked child
/// (each side of the soak needs ~10k fds against a 20k RLIMIT_NOFILE);
/// chunked acks keep the accept backlog from overflowing. Arg: shards.
void BM_ServeConnScaling(benchmark::State& state) {
  constexpr std::size_t kIdleConns = 10000;
  constexpr std::size_t kChunk = 100;
  rlimit limit{};
  if (getrlimit(RLIMIT_NOFILE, &limit) == 0 &&
      limit.rlim_cur < limit.rlim_max) {
    rlimit raised = limit;
    raised.rlim_cur = limit.rlim_max;
    setrlimit(RLIMIT_NOFILE, &raised);
    limit = raised;
  }
  if (limit.rlim_cur < kIdleConns + 300) {
    state.SkipWithError("RLIMIT_NOFILE too low for a 10k-connection soak");
    return;
  }
  int control[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, control) != 0) {
    state.SkipWithError("socketpair failed");
    return;
  }
  // Fork before the server spawns threads; the child only makes raw
  // syscalls (socket/connect/read/write) and exits via _exit.
  pid_t child = ::fork();
  if (child < 0) {
    ::close(control[0]);
    ::close(control[1]);
    state.SkipWithError("fork failed");
    return;
  }
  if (child == 0) {
    ::close(control[0]);
    unsigned char port_bytes[2];
    std::size_t got = 0;
    while (got < 2) {
      ssize_t n = ::read(control[1], port_bytes + got, 2 - got);
      if (n <= 0) ::_exit(1);
      got += static_cast<std::size_t>(n);
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(
        port_bytes[0] | (port_bytes[1] << 8)));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    std::vector<int> fds;
    fds.reserve(kIdleConns);
    for (std::size_t i = 0; i < kIdleConns; ++i) {
      int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) ::_exit(1);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) != 0) {
        ::_exit(1);
      }
      fds.push_back(fd);
      if (fds.size() % kChunk == 0) {
        char c = 'c';
        if (::write(control[1], &c, 1) != 1) ::_exit(1);
        char ack = 0;
        if (::read(control[1], &ack, 1) != 1 || ack != 'a') ::_exit(1);
      }
    }
    char d = 'd';
    if (::write(control[1], &d, 1) != 1) ::_exit(1);
    char parked = 0;
    [[maybe_unused]] ssize_t rc = ::read(control[1], &parked, 1);
    for (int fd : fds) ::close(fd);
    ::_exit(0);
  }
  ::close(control[1]);

  const auto& files = snapshot_bench_files(100000);
  auto engine_state = serve::EngineState::load(files.snap);
  bool setup_ok = engine_state.has_value();
  serve::QueryServer::Options options;
  options.shards = static_cast<unsigned>(state.range(0));
  options.max_conns = 0;
  options.idle_timeout_ms = 600000;
  std::unique_ptr<serve::QueryServer> server;
  std::uint16_t port = 0;
  if (setup_ok) {
    server = std::make_unique<serve::QueryServer>(*engine_state, options);
    auto started = server->start();
    setup_ok = started.has_value();
    if (setup_ok) port = *started;
  }
  auto abort_child = [&](const char* why) {
    char done = 'x';
    [[maybe_unused]] ssize_t rc = ::write(control[0], &done, 1);
    int status = 0;
    ::waitpid(child, &status, 0);
    ::close(control[0]);
    state.SkipWithError(why);
  };
  if (!setup_ok) {
    abort_child("server setup failed");
    return;
  }
  unsigned char port_bytes[2] = {
      static_cast<unsigned char>(port & 0xFF),
      static_cast<unsigned char>((port >> 8) & 0xFF)};
  if (::write(control[0], port_bytes, 2) != 2) {
    abort_child("control write failed");
    return;
  }
  std::size_t acked = 0;
  for (;;) {
    char byte = 0;
    if (::read(control[0], &byte, 1) != 1 || byte == 'f') {
      abort_child("soak child failed");
      return;
    }
    if (byte == 'd') break;
    acked += kChunk;
    while (server->active_connections() < acked) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    char ack = 'a';
    if (::write(control[0], &ack, 1) != 1) {
      abort_child("control ack failed");
      return;
    }
  }

  auto client = serve::QueryClient::connect("127.0.0.1", port);
  if (!client) {
    abort_child("client failed to connect");
    return;
  }
  std::vector<std::string> queries;
  for (std::uint32_t i = 0; i < 1024; ++i) {
    queries.push_back(
        "EXACT " +
        Prefix::make(Ipv4Addr((i * 97u % 100000u) << 8), 24)->to_string());
  }
  // 1us-bucket latency histogram over every timed request; p99 of request
  // latency while 10k idle connections sit on the same epoll sets is the
  // acceptance number.
  constexpr std::size_t kBuckets = 100000;
  std::vector<std::uint32_t> histogram(kBuckets, 0);
  std::uint64_t sampled = 0;
  std::size_t i = 0;
  bool failed = false;
  for (auto _ : state) {
    auto t0 = std::chrono::steady_clock::now();
    auto response = client->request(queries[i++ % queries.size()]);
    auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    if (!response) {
      failed = true;
      break;
    }
    ++sampled;
    histogram[std::min<std::size_t>(static_cast<std::size_t>(us),
                                    kBuckets - 1)]++;
  }
  const std::size_t held = server->active_connections();
  char done = 'x';
  [[maybe_unused]] ssize_t rc = ::write(control[0], &done, 1);
  int status = 0;
  ::waitpid(child, &status, 0);
  ::close(control[0]);
  server->stop();
  if (failed) {
    state.SkipWithError("request failed during the soak");
    return;
  }
  double p99 = 0.0;
  if (sampled > 0) {
    std::uint64_t target = sampled - sampled / 100;
    std::uint64_t seen = 0;
    for (std::size_t us = 0; us < kBuckets; ++us) {
      seen += histogram[us];
      if (seen >= target) {
        p99 = static_cast<double>(us);
        break;
      }
    }
  }
  state.counters["shards"] = static_cast<double>(state.range(0));
  state.counters["idle_conns"] = static_cast<double>(held);
  state.counters["p99_us"] = p99;
  state.counters["peak_rss_mb"] = bench::peak_rss_megabytes();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ServeConnScaling)
    ->Arg(1)->Arg(8)
    ->Iterations(500)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Observability overhead + per-stage trace summaries (docs/OBSERVABILITY.md).
// ---------------------------------------------------------------------------

/// Cost of `batch()` with metrics enabled vs disabled (the
/// set_metrics_enabled kill switch), recorded as counters on `state`; the
/// acceptance bar is < 2% overhead. Two defenses against a small shared
/// box where even repeated identical batches drift by tens of percent
/// (preemption, steal time, frequency scaling):
///   - thread CPU time, not wall clock — the instrumentation being priced
///     is pure CPU work;
///   - many short paired rounds: each round times one enabled and one
///     disabled batch back to back (alternating which goes first, to
///     cancel warm-up bias) and keeps the on/off *ratio*; the estimate is
///     the median ratio, so slow episodes penalize both sides of a pair
///     equally and outlier rounds drop out. Measured pair-to-pair spread
///     on the CI box is ~±3%, so the median of 41 pairs puts the
///     estimator's noise well under the 2% bar.
template <typename Batch>
void record_metrics_overhead(benchmark::State& state, Batch&& batch) {
  constexpr int kRounds = 41;
  auto batch_ns = [&](bool enabled) -> double {
    obs::set_metrics_enabled(enabled);
    timespec t0{}, t1{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t0);
    batch();
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t1);
    return static_cast<double>(t1.tv_sec - t0.tv_sec) * 1e9 +
           static_cast<double>(t1.tv_nsec - t0.tv_nsec);
  };
  std::vector<double> ratios;
  double on_ns = 1e18, off_ns = 1e18;
  for (int round = 0; round < kRounds; ++round) {
    double on, off;
    if (round % 2 == 0) {
      on = batch_ns(true);
      off = batch_ns(false);
    } else {
      off = batch_ns(false);
      on = batch_ns(true);
    }
    ratios.push_back(on / off);
    on_ns = std::min(on_ns, on);
    off_ns = std::min(off_ns, off);
  }
  obs::set_metrics_enabled(true);
  std::sort(ratios.begin(), ratios.end());
  double overhead_pct = (ratios[ratios.size() / 2] - 1.0) * 100.0;
  state.counters["metrics_on_ms"] = on_ns / 1e6;
  state.counters["metrics_off_ms"] = off_ns / 1e6;
  state.counters["overhead_pct"] = overhead_pct;
  if (overhead_pct >= 2.0) {
    state.SkipWithError("metrics hot path costs >= 2%");
  }
}

/// Price of the always-on metrics instrumentation where it is densest per
/// unit of work: the server's request path (a counter add per verb plus a
/// latency histogram record per request).
void BM_MetricsHotPathServe(benchmark::State& state) {
  const auto& files = snapshot_bench_files(10000);
  auto engine_state = serve::EngineState::load(files.snap);
  if (!engine_state) {
    state.SkipWithError("snapshot load failed");
    return;
  }
  serve::QueryServer server(*engine_state);  // no sockets: handle_request()
  std::vector<std::string> queries;
  for (std::uint32_t i = 0; i < 1024; ++i) {
    queries.push_back(
        "EXACT " +
        Prefix::make(Ipv4Addr((i * 97u % 10000u) << 8), 24)->to_string());
  }
  std::size_t i = 0;
  for (auto _ : state) {
    std::string response = server.handle_request(queries[i++ % queries.size()]);
    benchmark::DoNotOptimize(response);
  }
  constexpr int kBatch = 20000;
  record_metrics_overhead(state, [&] {
    for (int j = 0; j < kBatch; ++j) {
      std::string response =
          server.handle_request(queries[static_cast<std::size_t>(j) %
                                        queries.size()]);
      benchmark::DoNotOptimize(response);
    }
  });
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
// Fixed iteration count: the enabled-vs-disabled comparison runs once per
// invocation of the function, so calibration re-invocations would repeat
// (and re-judge) it.
BENCHMARK(BM_MetricsHotPathServe)->Iterations(20000);

/// Same check on the classification hot path. Classification aggregates
/// per-group counts once per classify() call instead of touching counters
/// per leaf, so the expected overhead is indistinguishable from zero.
void BM_MetricsHotPathClassify(benchmark::State& state) {
  std::string dir = dataset_for(20);
  auto bundle = leasing::load_dataset(dir);
  asgraph::AsGraph graph(&bundle.as_rel, &bundle.as2org);
  leasing::PipelineOptions options;
  options.threads = 1;  // serial: measure the loop body, not pool jitter
  // Several passes per batch so each timed sample is tens of ms: a single
  // classify pass over this dataset is short enough that scheduler noise
  // on a small box would dominate a 2% comparison.
  constexpr int kPasses = 48;
  auto classify_all = [&] {
    leasing::Pipeline pipeline(bundle.rib, graph, options);
    std::size_t classified = 0;
    for (int pass = 0; pass < kPasses; ++pass) {
      for (const whois::WhoisDb& db : bundle.whois) {
        classified += pipeline.classify(db).size();
      }
    }
    benchmark::DoNotOptimize(classified);
  };
  for (auto _ : state) {
    classify_all();
  }
  record_metrics_overhead(state, classify_all);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsHotPathClassify)
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);

/// Price of the per-request flight recorder (docs/OBSERVABILITY.md) on
/// the live serve path, recorder on vs off via set_flight_recording() —
/// the kill switch INSPECT reports. Arg: event-loop shards; the
/// acceptance bar is < 2% at 8 shards. Estimator: thousands of paired
/// 64-request blocks, toggling the recorder between blocks (alternating
/// which side goes first), then the ratio of the two aggregate times
/// over the fastest 75% of pairs (ranked by combined time — a symmetric
/// outlier cut, so it cannot favour either side). The fine interleaving
/// is what makes the measurement converge on a shared host: paired
/// blocks sit ~1ms apart, inside the drift timescale of frequency
/// scaling and host contention, where second-scale paired rounds drift
/// by more than the bar. Timed on process CPU time — the server runs
/// in-process, so CLOCK_PROCESS_CPUTIME_ID sees the shard threads'
/// recorder cost while staying blind to scheduler wait. Each block walks
/// one driver thread over eight persistent connections (round-robined
/// across the shards at accept) sequentially.
void BM_FlightRecorderOverhead(benchmark::State& state) {
  const auto& files = snapshot_bench_files(100000);
  auto engine_state = serve::EngineState::load(files.snap);
  if (!engine_state) {
    state.SkipWithError("snapshot load failed");
    return;
  }
  serve::QueryServer::Options options;
  options.shards = static_cast<unsigned>(state.range(0));
  serve::QueryServer server(*engine_state, options);
  auto port = server.start();
  if (!port) {
    state.SkipWithError("server failed to start");
    return;
  }
  std::vector<std::string> queries;
  for (std::uint32_t i = 0; i < 1024; ++i) {
    queries.push_back(
        "LPM " + Ipv4Addr(((i * 97u % 100000u) << 8) | 1u).to_string());
  }
  constexpr int kClients = 8;
  constexpr int kBlock = 64;     ///< requests per timed block
  constexpr int kPairs = 1500;   ///< (on, off) block pairs
  std::vector<serve::QueryClient> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    auto client = serve::QueryClient::connect("127.0.0.1", *port);
    if (!client) {
      server.stop();
      state.SkipWithError("client failed to connect");
      return;
    }
    clients.push_back(std::move(*client));
  }
  int failures = 0;
  auto process_cpu_ns = [] {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e9 +
           static_cast<double>(ts.tv_nsec);
  };
  int sent = 0;
  auto block_ns = [&](bool enabled) -> double {
    server.set_flight_recording(enabled);
    const double t0 = process_cpu_ns();
    for (int i = 0; i < kBlock; ++i, ++sent) {
      auto response =
          clients[static_cast<std::size_t>(sent % kClients)].request(
              queries[static_cast<std::size_t>(sent) % queries.size()]);
      if (!response) {
        ++failures;
        break;
      }
    }
    return process_cpu_ns() - t0;
  };
  for (int i = 0; i < 8; ++i) {  // warm-up: connections, caches, rings
    block_ns(true);
    block_ns(false);
  }
  std::vector<std::pair<double, double>> pairs;  // (on, off) per block pair
  pairs.reserve(kPairs);
  for (auto _ : state) {
    for (int pair = 0; pair < kPairs; ++pair) {
      double on, off;
      if (pair % 2 == 0) {
        on = block_ns(true);
        off = block_ns(false);
      } else {
        off = block_ns(false);
        on = block_ns(true);
      }
      pairs.emplace_back(on, off);
    }
  }
  server.set_flight_recording(true);
  clients.clear();
  server.stop();
  if (failures != 0) {
    state.SkipWithError("request round trips failed");
    return;
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& a, const auto& b) {
              return a.first + a.second < b.first + b.second;
            });
  const std::size_t keep = pairs.size() * 3 / 4;
  double sum_on = 0.0, sum_off = 0.0;
  for (std::size_t i = 0; i < keep; ++i) {
    sum_on += pairs[i].first;
    sum_off += pairs[i].second;
  }
  const double overhead_pct = (sum_on / sum_off - 1.0) * 100.0;
  state.counters["shards"] = static_cast<double>(state.range(0));
  state.counters["recorder_on_ms"] = sum_on / 1e6;
  state.counters["recorder_off_ms"] = sum_off / 1e6;
  state.counters["overhead_pct"] = overhead_pct;
  state.counters["peak_rss_mb"] = bench::peak_rss_megabytes();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2 * kPairs * kBlock);
  if (state.range(0) >= 8 && overhead_pct >= 2.0) {
    state.SkipWithError(("flight recorder costs >= 2% at 8 shards (" +
                         std::to_string(overhead_pct) + "%)")
                            .c_str());
  }
}
// One iteration: the paired-block comparison runs once per invocation, so
// calibration re-invocations would repeat (and re-judge) it.
BENCHMARK(BM_FlightRecorderOverhead)
    ->Arg(1)->Arg(8)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

/// One traced end-to-end run (dataset load + classification) whose
/// per-stage wall/cpu/record summaries land in BENCH_perf_pipeline.json as
/// counters — future PRs can attribute a pipeline regression to a stage
/// without re-profiling.
void BM_PipelineStageTrace(benchmark::State& state) {
  std::string dir = dataset_for(100);
  obs::Tracer& tracer = obs::Tracer::global();
  std::size_t classified = 0;
  for (auto _ : state) {
    tracer.clear();
    tracer.set_enabled(true);
    auto bundle = leasing::load_dataset(dir);
    asgraph::AsGraph graph(&bundle.as_rel, &bundle.as2org);
    leasing::Pipeline pipeline(bundle.rib, graph, {});
    classified = 0;
    for (const whois::WhoisDb& db : bundle.whois) {
      classified += pipeline.classify(db).size();
    }
    tracer.set_enabled(false);
    benchmark::DoNotOptimize(classified);
  }
  // Aggregate the last iteration's spans by stage name; chunk spans roll
  // into their stage's total CPU picture via their own row.
  struct StageAgg {
    double wall_ms = 0.0;
    double cpu_ms = 0.0;
    double records = 0.0;
  };
  std::map<std::string, StageAgg> stages;
  for (const obs::SpanRecord& span : tracer.spans()) {
    StageAgg& agg = stages[span.name];
    agg.wall_ms += static_cast<double>(span.wall_ns) / 1e6;
    agg.cpu_ms += static_cast<double>(span.cpu_ns) / 1e6;
    agg.records += static_cast<double>(span.records);
  }
  tracer.clear();
  for (const auto& [name, agg] : stages) {
    state.counters[name + ":wall_ms"] = agg.wall_ms;
    state.counters[name + ":cpu_ms"] = agg.cpu_ms;
    if (agg.records > 0) state.counters[name + ":records"] = agg.records;
  }
  state.counters["leaves"] = static_cast<double>(classified);
  state.counters["peak_rss_mb"] = bench::peak_rss_megabytes();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PipelineStageTrace)->Unit(benchmark::kMillisecond);

void BM_RpkiValidate(benchmark::State& state) {
  std::string dir = dataset_for(100);
  auto bundle = leasing::load_dataset(dir);
  const rpki::VrpSet* vrps = bundle.current_vrps();
  std::vector<std::pair<Prefix, Asn>> queries;
  bundle.rib.visit([&](const Prefix& p, const bgp::RouteInfo& info) {
    if (!info.origins.empty() && queries.size() < 10000) {
      queries.emplace_back(p, info.origins.front());
    }
  });
  std::size_t i = 0;
  for (auto _ : state) {
    auto v = vrps->validate(queries[i % queries.size()].first,
                            queries[i % queries.size()].second);
    benchmark::DoNotOptimize(v);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RpkiValidate);

void BM_RibLookup(benchmark::State& state) {
  std::string dir = dataset_for(100);
  auto bundle = leasing::load_dataset(dir);
  std::vector<Prefix> queries;
  bundle.rib.visit([&](const Prefix& p, const bgp::RouteInfo&) {
    if (queries.size() < 10000) queries.push_back(p);
  });
  std::size_t i = 0;
  for (auto _ : state) {
    const auto* info = bundle.rib.exact(queries[i % queries.size()]);
    benchmark::DoNotOptimize(info);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RibLookup);

/// Arg: event-loop shards. One full pass of the soak driver (src/loadgen)
/// against an in-process server: 4 workers replaying the seed-keyed verb
/// mix flat out (the open-loop qps target is set far above what the box
/// can do, so pacing never sleeps). soak_lookups_per_s is the aggregate
/// end-to-end rate across every verb; the acceptance gate — >= 1M
/// lookups/s with zero wrong answers and zero uninjected errors — is
/// enforced at 8 shards.
void BM_SoakThroughput(benchmark::State& state) {
  loadgen::LoadOptions options;
  options.seed = 4242;
  options.workers = 4;
  // Saturation sizing: the schedule is duration_ms x qps ops, and workers
  // drain ALL of it as fast as the box allows (pacing never waits at this
  // qps) — so these two knobs set the op count (~60k, a few seconds), not
  // the wall time.
  options.duration_ms = 1000;
  options.qps = 60000.0;
  options.batch_size = 512;
  options.pipeline_depth = 4;
  options.world.scale = 0.05;
  options.world.epochs = 3;
  options.world.pending = 0;
  options.shards = static_cast<unsigned>(state.range(0));
  options.spot_check_every = 1024;
  double lookups_per_s = 0.0;
  double achieved_qps = 0.0;
  std::uint64_t requests = 0;
  for (auto _ : state) {
    auto report = loadgen::run_load(options);
    if (!report) {
      state.SkipWithError(report.error().to_string().c_str());
      return;
    }
    if (report->wrong_answers != 0 || report->uninjected_errors != 0) {
      state.SkipWithError("soak saw wrong answers or uninjected errors");
      return;
    }
    lookups_per_s = report->lookups_per_s;
    achieved_qps = report->achieved_qps;
    requests = report->total_requests;
    state.SetIterationTime(static_cast<double>(report->elapsed_ms) / 1e3);
  }
  state.counters["shards"] = static_cast<double>(state.range(0));
  state.counters["workers"] = static_cast<double>(options.workers);
  state.counters["soak_lookups_per_s"] = lookups_per_s;
  state.counters["achieved_qps"] = achieved_qps;
  state.counters["requests"] = static_cast<double>(requests);
  state.counters["peak_rss_mb"] = bench::peak_rss_megabytes();
  state.SetItemsProcessed(static_cast<std::int64_t>(requests));
  if (state.range(0) >= 8 && lookups_per_s < 1e6) {
    state.SkipWithError("soak aggregate below 1M lookups/s at 8 shards");
  }
}
BENCHMARK(BM_SoakThroughput)
    ->Arg(1)->Arg(8)
    ->Iterations(1)->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
