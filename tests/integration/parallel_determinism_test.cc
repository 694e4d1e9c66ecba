// Whole-pipeline determinism across thread counts: the parallel execution
// layer must be a pure performance knob. Emission, dataset load, and leaf
// classification at N threads have to produce byte-identical artifacts to
// the serial path.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <map>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "asgraph/as_graph.h"
#include "leasing/dataset.h"
#include "leasing/pipeline.h"
#include "leasing/report.h"
#include "mrt/rib_file.h"
#include "obs/metrics.h"
#include "obs/trace.h"
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

/// Everything a load hands the pipeline, rendered: diagnostics in order,
/// every RIB route, and every WHOIS record.
std::string render_load(const leasing::DatasetBundle& bundle) {
  std::ostringstream out;
  for (const Error& d : bundle.diagnostics) {
    out << "diag " << d.source << ":" << d.line << " " << d.message << "\n";
  }
  bundle.rib.visit([&](const Prefix& prefix, const bgp::RouteInfo& info) {
    out << "route " << prefix.to_string() << " " << info.peer_observations;
    for (Asn asn : info.origins) out << " " << asn.to_string();
    out << "\n";
  });
  for (const whois::WhoisDb& db : bundle.whois) {
    out << "db " << whois::rir_name(db.rir()) << "\n";
    for (const whois::InetBlock& b : db.blocks()) {
      out << b.range.first.to_string() << "-" << b.range.last.to_string()
          << "|" << b.netname << "|" << b.status << "|" << b.org_id << "|"
          << b.country;
      for (const std::string& m : b.maintainers) out << "|" << m;
      out << "\n";
    }
    for (const whois::AutNumRec& a : db.autnums()) {
      out << a.asn.to_string() << "|" << a.as_name << "|" << a.org_id << "\n";
    }
    std::vector<std::string> orgs;
    for (const whois::OrgRec* org : db.all_orgs()) {
      orgs.push_back(org->id + "|" + org->name + "|" + org->country);
    }
    std::sort(orgs.begin(), orgs.end());
    for (const std::string& org : orgs) out << org << "\n";
  }
  return out.str();
}

TEST(ParallelDeterminism, LoadDiagnosticsAndRibIdenticalAcrossThreadCounts) {
  std::string dir = scratch_dir("load");
  fs::remove_all(dir);
  sim::emit_world(small_world(), dir);
  {
    // A malformed object mid-file (a consume and a parser diagnostic in a
    // middle slice), a corrupt MRT file and one with a skipped ADD-PATH
    // record.
    std::string ripe = read_file(dir + "/whois/ripe.db");
    std::size_t mid = ripe.find("\n\n", ripe.size() / 2) + 2;
    ripe.insert(mid,
                "inetnum: not a range\nstatus: ASSIGNED PA\n"
                "this line has no separator\n\n");
    std::ofstream(dir + "/whois/ripe.db", std::ios::binary) << ripe;
    std::ofstream(dir + "/bgp/rib.00.corrupt.mrt", std::ios::binary)
        << "this is not MRT";
    std::ofstream out(dir + "/bgp/rib.zz.addpath.mrt", std::ios::binary);
    mrt::MrtWriter writer(out);
    mrt::PeerIndexTable pit;
    pit.peers = {{Ipv4Addr(1), Ipv4Addr(2), Asn(65000)}};
    writer.write(1, mrt::MrtType::kTableDumpV2, 1,
                 mrt::encode_peer_index_table(pit));
    writer.write(1, mrt::MrtType::kTableDumpV2, 8,
                 std::vector<std::uint8_t>{0, 0, 0, 1, 16, 10, 0, 0, 0});
    mrt::RibPrefixRecord rec;
    rec.prefix = *Prefix::parse("10.0.1.0/24");
    mrt::RibEntry entry;
    entry.attributes.as_path.segments = {
        {mrt::AsPathSegmentType::kAsSequence, {Asn(65000), Asn(64501)}}};
    rec.entries = {entry};
    writer.write(1, mrt::MrtType::kTableDumpV2, 2,
                 mrt::encode_rib_ipv4_unicast(rec));
  }

  std::string serial;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    leasing::LoadOptions options;
    options.threads = threads;
    std::string got = render_load(leasing::load_dataset(dir, options));
    if (threads == 1) {
      serial = got;
      EXPECT_NE(serial.find("bad inetnum range"), std::string::npos);
      EXPECT_NE(serial.find("without attribute separator"), std::string::npos);
      EXPECT_NE(serial.find("rib.00.corrupt.mrt"), std::string::npos);
      EXPECT_NE(serial.find("13/8"), std::string::npos);
    } else {
      EXPECT_EQ(got == serial, true) << "load differs at threads=" << threads;
    }
  }

  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(ParallelDeterminism, TracedLoadSpansNestUnderTheirStages) {
  std::string dir = scratch_dir("trace");
  fs::remove_all(dir);
  sim::emit_world(small_world(), dir);
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  leasing::LoadOptions options;
  options.threads = 4;
  leasing::load_dataset(dir, options);
  tracer.set_enabled(false);

  std::map<obs::SpanId, obs::SpanRecord> by_id;
  for (const obs::SpanRecord& span : tracer.spans()) by_id[span.id] = span;
  tracer.clear();
  auto name_of = [&](obs::SpanId id) {
    auto it = by_id.find(id);
    return it == by_id.end() ? std::string("?") : it->second.name;
  };
  std::map<std::string, int> seen;
  for (const auto& [id, span] : by_id) {
    ++seen[span.name];
    const std::string parent = name_of(span.parent);
    if (span.name == "rib.load" || span.name == "whois.parse") {
      EXPECT_EQ(parent, "dataset.load") << span.name;
    } else if (span.name == "rib.merge" || span.name == "rib.trie") {
      EXPECT_EQ(parent, "rib.load") << span.name;
    } else if (span.name == "whois.parse.chunk") {
      EXPECT_EQ(parent, "whois.parse") << span.name;
    }
  }
  EXPECT_EQ(seen["rib.load"], 1);
  EXPECT_EQ(seen["rib.merge"], 1);
  EXPECT_EQ(seen["rib.trie"], 1);
  EXPECT_EQ(seen["whois.parse"], 5);
  EXPECT_GT(seen["whois.parse.chunk"], 5) << "files should split into slices";

  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace sublet
