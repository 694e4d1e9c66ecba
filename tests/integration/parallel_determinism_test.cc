// Whole-pipeline determinism across thread counts: the parallel execution
// layer must be a pure performance knob. Emission, dataset load, and leaf
// classification at N threads have to produce byte-identical artifacts to
// the serial path.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "asgraph/as_graph.h"
#include "leasing/dataset.h"
#include "leasing/pipeline.h"
#include "leasing/report.h"
#include "obs/metrics.h"
#include "simnet/builder.h"
#include "simnet/emit.h"

namespace sublet {
namespace {

namespace fs = std::filesystem;

std::string scratch_dir(const std::string& tag) {
  return testing::TempDir() + "/sublet_par_det." + tag + "." +
         std::to_string(::getpid());
}

sim::World small_world() {
  sim::WorldConfig config;
  config.seed = 424242;
  config.scale = 0.03;
  return sim::build_world(config);
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Relative path -> contents for every regular file under `dir`.
std::vector<std::pair<std::string, std::string>> snapshot(
    const std::string& dir) {
  std::vector<std::pair<std::string, std::string>> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    files.emplace_back(fs::relative(entry.path(), dir).string(),
                       read_file(entry.path()));
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(ParallelDeterminism, EmitWorldBytesIdenticalAcrossThreadCounts) {
  sim::World world = small_world();
  std::string serial_dir = scratch_dir("emit1");
  std::string parallel_dir = scratch_dir("emit4");
  fs::remove_all(serial_dir);
  fs::remove_all(parallel_dir);

  sim::emit_world(world, serial_dir, 1);
  sim::emit_world(world, parallel_dir, 4);

  auto serial = snapshot(serial_dir);
  auto parallel = snapshot(parallel_dir);
  ASSERT_FALSE(serial.empty());
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].first, parallel[i].first);
    EXPECT_EQ(serial[i].second == parallel[i].second, true)
        << "file differs: " << serial[i].first;
  }

  std::error_code ec;
  fs::remove_all(serial_dir, ec);
  fs::remove_all(parallel_dir, ec);
}

TEST(ParallelDeterminism, ClassifyCsvByteIdenticalAcrossThreadCounts) {
  std::string dir = scratch_dir("classify");
  fs::remove_all(dir);
  sim::emit_world(small_world(), dir);

  std::string serial_csv;
  for (unsigned threads : {1u, 2u, 8u}) {
    leasing::LoadOptions load_options;
    load_options.threads = threads;
    auto bundle = leasing::load_dataset(dir, load_options);
    asgraph::AsGraph graph(&bundle.as_rel, &bundle.as2org);
    leasing::PipelineOptions options;
    options.threads = threads;
    leasing::Pipeline pipeline(bundle.rib, graph, options);

    std::vector<leasing::LeaseInference> results =
        pipeline.classify(bundle.whois);
    std::ostringstream csv;
    leasing::write_inferences_csv(csv, results);
    ASSERT_GT(csv.str().size(), 1000u) << "threads=" << threads;
    if (threads == 1) {
      serial_csv = csv.str();
    } else {
      EXPECT_EQ(csv.str() == serial_csv, true)
          << "inference CSV differs at threads=" << threads;
    }
  }

  std::error_code ec;
  fs::remove_all(dir, ec);
}

/// Current sublet_classify_leaves_total{group} values, in group order.
std::vector<std::uint64_t> classify_counters() {
  std::vector<std::uint64_t> out;
  for (leasing::InferenceGroup group : leasing::kAllInferenceGroups) {
    out.push_back(obs::MetricsRegistry::global()
                      .counter(obs::labeled("sublet_classify_leaves_total",
                                            "group",
                                            leasing::group_name(group)))
                      .value());
  }
  return out;
}

std::vector<std::uint64_t> minus(const std::vector<std::uint64_t>& after,
                                 const std::vector<std::uint64_t>& before) {
  std::vector<std::uint64_t> out(after.size());
  for (std::size_t i = 0; i < after.size(); ++i) out[i] = after[i] - before[i];
  return out;
}

TEST(ParallelDeterminism, AllDatabasesClassifyAsPerRirConcatenation) {
  std::string dir = scratch_dir("span");
  fs::remove_all(dir);
  sim::emit_world(small_world(), dir);
  auto bundle = leasing::load_dataset(dir);
  asgraph::AsGraph graph(&bundle.as_rel, &bundle.as2org);
  ASSERT_GT(bundle.whois.size(), 1u);

  for (unsigned threads : {1u, 2u, 4u}) {
    leasing::PipelineOptions options;
    options.threads = threads;
    leasing::Pipeline pipeline(bundle.rib, graph, options);

    auto before = classify_counters();
    std::vector<leasing::LeaseInference> concatenated;
    for (const whois::WhoisDb& db : bundle.whois) {
      auto partial = pipeline.classify(db);
      std::move(partial.begin(), partial.end(),
                std::back_inserter(concatenated));
    }
    auto per_rir_delta = minus(classify_counters(), before);

    before = classify_counters();
    auto all = pipeline.classify(bundle.whois);
    auto all_delta = minus(classify_counters(), before);

    ASSERT_GT(all.size(), 1000u) << "threads=" << threads;
    ASSERT_EQ(all.size(), concatenated.size()) << "threads=" << threads;
    auto fields = [](const leasing::LeaseInference& r) {
      return std::tie(r.prefix, r.rir, r.group, r.root_prefix, r.holder_org,
                      r.holder_asns, r.leaf_origins, r.root_origins,
                      r.leaf_maintainers, r.root_maintainers, r.netname);
    };
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (fields(all[i]) != fields(concatenated[i])) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u) << "threads=" << threads;
    EXPECT_EQ(all_delta, per_rir_delta) << "threads=" << threads;
  }

  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace sublet
