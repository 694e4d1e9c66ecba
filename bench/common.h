// Shared harness for the experiment benches (DESIGN.md §4).
//
// Every bench regenerates one table/figure of the paper from a synthetic
// world. The world is emitted once per (seed, scale) into a cache directory
// and re-loaded by subsequent benches, so `for b in build/bench/*; do $b;
// done` does not rebuild it twelve times.
//
// Environment knobs:
//   SUBLET_BENCH_SCALE  world scale (default 1.0 = ~1/10 of the paper)
//   SUBLET_BENCH_SEED   generator seed (default 20240401)
#pragma once

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "asgraph/as_graph.h"
#include "leasing/dataset.h"
#include "leasing/pipeline.h"
#include "simnet/builder.h"
#include "simnet/emit.h"
#include "simnet/ground_truth.h"
#include "util/table.h"

namespace sublet::bench {

inline double bench_scale() {
  if (const char* env = std::getenv("SUBLET_BENCH_SCALE")) {
    return std::atof(env);
  }
  return 1.0;
}

inline std::uint64_t bench_seed() {
  if (const char* env = std::getenv("SUBLET_BENCH_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20240401;
}

/// Emit (or reuse) the cached dataset for the configured seed/scale and
/// return its directory.
inline std::string ensure_dataset() {
  double scale = bench_scale();
  std::uint64_t seed = bench_seed();
  std::string dir = "/tmp/sublet-bench-" + std::to_string(seed) + "-" +
                    std::to_string(static_cast<int>(scale * 1000));
  std::string marker = dir + "/.complete";
  if (std::filesystem::exists(marker)) return dir;

  auto start = std::chrono::steady_clock::now();
  std::cerr << "[bench] generating world (seed=" << seed
            << ", scale=" << scale << ") into " << dir << " ...\n";
  std::filesystem::remove_all(dir);
  sim::WorldConfig config;
  config.seed = seed;
  config.scale = scale;
  sim::World world = sim::build_world(config);
  sim::emit_world(world, dir);
  std::ofstream(marker) << "ok\n";
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  std::cerr << "[bench] world ready: " << world.leaves.size() << " leaves, "
            << world.ases.size() << " ASes (" << elapsed << " ms)\n";
  return dir;
}

/// The full measurement run most benches start from.
struct FullRun {
  std::string dir;
  leasing::DatasetBundle bundle;
  sim::GroundTruth truth;
  asgraph::AsGraph graph;
  std::vector<leasing::LeaseInference> results;

  explicit FullRun(leasing::PipelineOptions options = {},
                   asgraph::RelatednessOptions relatedness = {})
      : dir(ensure_dataset()),
        bundle(leasing::load_dataset(dir)),
        truth(sim::GroundTruth::load(dir)),
        graph(&bundle.as_rel, &bundle.as2org, relatedness) {
    auto start = std::chrono::steady_clock::now();
    results = leasing::Pipeline(bundle.rib, graph, options)
                  .classify(bundle.whois);
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    std::cerr << "[bench] pipeline classified " << results.size()
              << " leaves in " << elapsed << " ms\n";
  }

  std::vector<leasing::LeaseInference> results_for(whois::Rir rir) const {
    std::vector<leasing::LeaseInference> out;
    for (const auto& r : results) {
      if (r.rir == rir) out.push_back(r);
    }
    return out;
  }
};

/// Header line every bench prints first.
inline void print_banner(const std::string& experiment,
                         const std::string& paper_ref) {
  std::cout << "==============================================================\n"
            << experiment << "\n"
            << "reproduces: " << paper_ref << "\n"
            << "(synthetic world at ~1/10 paper scale; compare shapes and\n"
            << " percentages, not absolute counts — see EXPERIMENTS.md)\n"
            << "==============================================================\n";
}

}  // namespace sublet::bench
