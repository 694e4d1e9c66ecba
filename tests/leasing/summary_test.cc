#include "leasing/summary.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "simnet/builder.h"
#include "simnet/emit.h"
#include "asgraph/as_graph.h"
#include "leasing/pipeline.h"

namespace sublet::leasing {
namespace {

TEST(Summary, RendersAllSections) {
  std::string dir = testing::TempDir() + "/sublet_summary_test";
  std::filesystem::remove_all(dir);
  sim::WorldConfig config;
  config.seed = 77;
  config.scale = 0.03;
  sim::emit_world(sim::build_world(config), dir);

  auto bundle = load_dataset(dir);
  asgraph::AsGraph graph(&bundle.as_rel, &bundle.as2org);
  Pipeline pipeline(bundle.rib, graph);
  std::vector<LeaseInference> results = pipeline.classify(bundle.whois);

  std::string report = render_summary(bundle, results);
  EXPECT_NE(report.find("Inference groups per region"), std::string::npos);
  EXPECT_NE(report.find("RIPE"), std::string::npos);
  EXPECT_NE(report.find("Leased prefixes:"), std::string::npos);
  EXPECT_NE(report.find("Leased address space:"), std::string::npos);
  EXPECT_NE(report.find("Top holders"), std::string::npos);
  EXPECT_NE(report.find("Top RIPE facilitators"), std::string::npos);
  EXPECT_NE(report.find("ipxo-mnt"), std::string::npos);
  EXPECT_NE(report.find("DROP-originated"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(Summary, EmptyResultsStillRender) {
  std::string dir = testing::TempDir() + "/sublet_summary_empty";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/whois");
  {
    std::ofstream out(dir + "/whois/ripe.db");
    out << "inetnum: 10.0.0.0 - 10.0.255.255\nstatus: ALLOCATED PA\n";
  }
  auto bundle = load_dataset(dir);
  std::string report = render_summary(bundle, {});
  EXPECT_NE(report.find("Leased prefixes: 0"), std::string::npos);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sublet::leasing
