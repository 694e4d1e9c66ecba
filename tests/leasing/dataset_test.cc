#include "leasing/dataset.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "asgraph/as_graph.h"
#include "leasing/pipeline.h"
#include "leasing/report.h"
#include "mrt/rib_file.h"
#include "obs/metrics.h"
#include "simnet/builder.h"
#include "simnet/emit.h"

namespace sublet::leasing {
namespace {

namespace fs = std::filesystem;

class DatasetLoader : public testing::Test {
 protected:
  void SetUp() override {
    // Pid-suffixed: ctest runs each case as its own process, possibly in
    // parallel, and a shared directory makes sibling cases race.
    dir_ = testing::TempDir() + "/sublet_dataset_test_" +
           std::to_string(::getpid());
    fs::remove_all(dir_);
    fs::create_directories(dir_ + "/whois");
  }
  void TearDown() override { fs::remove_all(dir_); }

  void write(const std::string& rel, const std::string& content) {
    fs::create_directories(fs::path(dir_ + "/" + rel).parent_path());
    std::ofstream out(dir_ + "/" + rel);
    out << content;
  }

  std::string dir_;
};

TEST_F(DatasetLoader, MissingDirectoryThrows) {
  EXPECT_THROW(load_dataset("/nonexistent/dataset"), std::runtime_error);
}

TEST_F(DatasetLoader, EmptyWhoisDirectoryThrows) {
  EXPECT_THROW(load_dataset(dir_), std::runtime_error);
}

TEST_F(DatasetLoader, MinimalBundleLoadsWithEmptyOptionalPieces) {
  write("whois/ripe.db",
        "inetnum: 10.0.0.0 - 10.0.255.255\nstatus: ALLOCATED PA\n"
        "org: ORG-A\nmnt-by: MNT-A\n");
  auto bundle = load_dataset(dir_);
  ASSERT_EQ(bundle.whois.size(), 1u);
  EXPECT_EQ(bundle.whois[0].rir(), whois::Rir::kRipe);
  EXPECT_EQ(bundle.rib.prefix_count(), 0u);
  EXPECT_EQ(bundle.as_rel.edge_count(), 0u);
  EXPECT_EQ(bundle.drop.size(), 0u);
  EXPECT_EQ(bundle.transfers.size(), 0u);
  EXPECT_TRUE(bundle.geodbs.empty());
  EXPECT_EQ(bundle.current_vrps(), nullptr);
  EXPECT_EQ(bundle.db_for(whois::Rir::kArin), nullptr);
  EXPECT_NE(bundle.db_for(whois::Rir::kRipe), nullptr);
}

TEST_F(DatasetLoader, OptionalPiecesAreLoadedWhenPresent) {
  write("whois/arin.db",
        "NetHandle: NET-1\nNetRange: 192.0.2.0 - 192.0.2.255\n"
        "NetType: Direct Allocation\nOrgID: X\n");
  write("asgraph/as-rel.txt", "1|2|-1\n");
  write("asgraph/as2org.txt",
        "# format: aut|changed|aut_name|org_id|opaque_id|source\n"
        "1|20240401|A|ORG-1|*|SIM\n"
        "# format: org_id|changed|org_name|country|source\n"
        "ORG-1|20240401|One|US|SIM\n");
  write("lists/asn-drop.json", "{\"asn\":666}\n");
  write("lists/serial-hijackers.txt", "667\n");
  write("lists/brokers-arin.txt", "Broker One LLC\n");
  write("lists/eval-isp-orgs.txt", "ARIN|ORG-ISP\nBOGUS-LINE\nNOPE|X\n");
  write("lists/transfers.txt", "100|ARIN|192.0.2.0/24|A|B|market\n");
  write("geo/provider-0.csv", "192.0.2.0/24,US\n");
  write("rpki/vrps-100.csv", "AS1,192.0.2.0/24,24,sim\n");

  auto bundle = load_dataset(dir_);
  EXPECT_EQ(bundle.as_rel.edge_count(), 1u);
  EXPECT_EQ(bundle.as2org.mapping_count(), 1u);
  EXPECT_TRUE(bundle.drop.contains(Asn(666)));
  EXPECT_TRUE(bundle.hijackers.contains(Asn(667)));
  ASSERT_TRUE(bundle.brokers.contains(whois::Rir::kArin));
  EXPECT_EQ(bundle.brokers.at(whois::Rir::kArin).size(), 1u);
  ASSERT_TRUE(bundle.eval_isp_orgs.contains(whois::Rir::kArin));
  EXPECT_EQ(bundle.eval_isp_orgs.at(whois::Rir::kArin).size(), 1u)
      << "malformed lines skipped";
  EXPECT_EQ(bundle.transfers.size(), 1u);
  ASSERT_EQ(bundle.geodbs.size(), 1u);
  EXPECT_EQ(bundle.geodbs[0].provider(), "provider-0");
  ASSERT_NE(bundle.current_vrps(), nullptr);
  EXPECT_EQ(bundle.current_vrps()->size(), 1u);
}

TEST_F(DatasetLoader, CorruptMrtIsDiagnosedNotFatal) {
  write("whois/ripe.db",
        "inetnum: 10.0.0.0 - 10.0.255.255\nstatus: ALLOCATED PA\n");
  fs::create_directories(dir_ + "/bgp");
  {
    std::ofstream out(dir_ + "/bgp/rib.0.t0.mrt", std::ios::binary);
    out << "this is not MRT";
  }
  auto bundle = load_dataset(dir_);
  EXPECT_EQ(bundle.rib.prefix_count(), 0u);
  EXPECT_FALSE(bundle.diagnostics.empty());
}

TEST_F(DatasetLoader, SkippedAddPathRecordIsCountedAndDiagnosed) {
  write("whois/ripe.db",
        "inetnum: 10.0.0.0 - 10.0.255.255\nstatus: ALLOCATED PA\n");
  fs::create_directories(dir_ + "/bgp");
  auto write_records = [&](const std::string& name, bool with_add_path) {
    std::ofstream out(dir_ + "/bgp/" + name, std::ios::binary);
    mrt::MrtWriter writer(out);
    mrt::PeerIndexTable pit;
    pit.peers = {{Ipv4Addr(1), Ipv4Addr(2), Asn(65000)}};
    writer.write(1, mrt::MrtType::kTableDumpV2, 1,
                 mrt::encode_peer_index_table(pit));
    auto record = [&](const char* prefix, std::uint32_t origin) {
      mrt::RibPrefixRecord rec;
      rec.prefix = *Prefix::parse(prefix);
      mrt::RibEntry entry;
      entry.attributes.as_path.segments = {
          {mrt::AsPathSegmentType::kAsSequence, {Asn(65000), Asn(origin)}}};
      rec.entries = {entry};
      writer.write(1, mrt::MrtType::kTableDumpV2, 2,
                   mrt::encode_rib_ipv4_unicast(rec));
    };
    record("10.0.0.0/16", 64500);
    if (with_add_path) {
      // RIB_IPV4_UNICAST_ADDPATH (RFC 8050): not decoded, only counted.
      writer.write(1, mrt::MrtType::kTableDumpV2, 8,
                   std::vector<std::uint8_t>{0, 0, 0, 1, 16, 10, 0, 0, 0});
    }
    record("10.0.1.0/24", 64501);
  };
  write_records("rib.0.t0.mrt", /*with_add_path=*/true);

  auto& skipped = obs::MetricsRegistry::global().counter(
      "sublet_mrt_records_skipped_total{type=\"13\",subtype=\"8\"}");
  std::uint64_t before = skipped.value();
  auto bundle = load_dataset(dir_);
  EXPECT_EQ(skipped.value(), before + 1);
  ASSERT_EQ(bundle.diagnostics.size(), 1u);
  EXPECT_NE(bundle.diagnostics[0].message.find("13/8"), std::string::npos)
      << bundle.diagnostics[0].to_string();
  EXPECT_EQ(bundle.diagnostics[0].source, dir_ + "/bgp/rib.0.t0.mrt");

  // The RIB_IPV4_UNICAST records around it load exactly as without it.
  write_records("rib.0.t0.mrt", /*with_add_path=*/false);
  auto plain = load_dataset(dir_);
  EXPECT_TRUE(plain.diagnostics.empty());
  ASSERT_EQ(bundle.rib.prefix_count(), 2u);
  ASSERT_EQ(plain.rib.prefix_count(), 2u);
  for (const char* prefix : {"10.0.0.0/16", "10.0.1.0/24"}) {
    const bgp::RouteInfo* got = bundle.rib.exact(*Prefix::parse(prefix));
    const bgp::RouteInfo* want = plain.rib.exact(*Prefix::parse(prefix));
    ASSERT_NE(got, nullptr) << prefix;
    ASSERT_NE(want, nullptr) << prefix;
    EXPECT_EQ(got->origins, want->origins) << prefix;
    EXPECT_EQ(got->peer_observations, want->peer_observations) << prefix;
  }
  EXPECT_EQ(bundle.rib.exact(*Prefix::parse("10.0.1.0/24"))->origins,
            std::vector<Asn>{Asn(64501)});
}

std::string classify_csv(const DatasetBundle& bundle, unsigned threads) {
  asgraph::AsGraph graph(&bundle.as_rel, &bundle.as2org);
  PipelineOptions options;
  options.threads = threads;
  Pipeline pipeline(bundle.rib, graph, options);
  std::vector<LeaseInference> results = pipeline.classify(bundle.whois);
  std::ostringstream csv;
  write_inferences_csv(csv, results);
  return csv.str();
}

TEST_F(DatasetLoader, ClassifyScopeSkipsUnreadPiecesAndKeepsTheCsv) {
  sim::WorldConfig config;
  config.seed = 11;
  config.scale = 0.03;
  sim::emit_world(sim::build_world(config), dir_);

  auto full = load_dataset(dir_, {.threads = 1});
  ASSERT_FALSE(full.geodbs.empty());
  ASSERT_NE(full.current_vrps(), nullptr);
  const std::string want = classify_csv(full, 1);
  ASSERT_GT(want.size(), 1000u);

  for (unsigned threads : {1u, 4u}) {
    auto narrow = load_dataset(
        dir_, {.threads = threads, .scope = DatasetScope::kClassify});
    EXPECT_TRUE(narrow.geodbs.empty()) << "threads=" << threads;
    EXPECT_EQ(narrow.current_vrps(), nullptr) << "threads=" << threads;
    EXPECT_TRUE(narrow.rpki_archive.timestamps().empty());
    EXPECT_EQ(narrow.transfers.size(), 0u);
    EXPECT_EQ(narrow.drop.size(), 0u);
    EXPECT_TRUE(narrow.brokers.empty());
    EXPECT_EQ(narrow.rib.prefix_count(), full.rib.prefix_count());
    EXPECT_TRUE(classify_csv(narrow, threads) == want)
        << "inference CSV differs at threads=" << threads;
  }
}

}  // namespace
}  // namespace sublet::leasing
