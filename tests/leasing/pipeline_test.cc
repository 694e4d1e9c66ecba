#include "leasing/pipeline.h"

#include <gtest/gtest.h>

#include <map>

#include "fixtures.h"

namespace sublet::leasing {
namespace {

using testutil::Fixture;
using testutil::P;

std::map<std::string, InferenceGroup> classify_map(const Fixture& f,
                                                   PipelineOptions opts = {}) {
  auto graph = f.graph();
  Pipeline pipeline(f.rib, graph, opts);
  std::map<std::string, InferenceGroup> out;
  for (const auto& inference : pipeline.classify(f.db)) {
    out[inference.prefix.to_string()] = inference.group;
  }
  return out;
}

TEST(Pipeline, Figure2LeasedPrefix) {
  Fixture f;
  auto groups = classify_map(f);
  // Root and leaf both originated, leaf origin AS15169 unrelated to holder
  // AS8851 -> leased group 4 (the paper's bold orange rectangle).
  EXPECT_EQ(groups.at("213.210.33.0/24"), InferenceGroup::kLeasedWithRoot);
}

TEST(Pipeline, AggregatedCustomer) {
  Fixture f;
  auto groups = classify_map(f);
  EXPECT_EQ(groups.at("213.210.2.0/23"), InferenceGroup::kAggregatedCustomer);
}

TEST(Pipeline, UnusedLeaf) {
  Fixture f;
  auto groups = classify_map(f);
  EXPECT_EQ(groups.at("198.51.1.0/24"), InferenceGroup::kUnused);
}

TEST(Pipeline, IspCustomerViaRelationship) {
  Fixture f;
  auto groups = classify_map(f);
  EXPECT_EQ(groups.at("198.51.2.0/24"), InferenceGroup::kIspCustomer);
}

TEST(Pipeline, LeasedGroup3) {
  Fixture f;
  auto groups = classify_map(f);
  EXPECT_EQ(groups.at("198.51.3.0/24"), InferenceGroup::kLeasedNoRoot);
}

TEST(Pipeline, DelegatedCustomer) {
  Fixture f;
  auto groups = classify_map(f);
  EXPECT_EQ(groups.at("203.0.5.0/24"), InferenceGroup::kDelegatedCustomer);
}

TEST(Pipeline, PortableOnlyRootsAreNotCandidates) {
  Fixture f;
  auto groups = classify_map(f);
  // 198.51.0.0/16's structural leaf set excludes portable root-leaves; the
  // classified set contains only the six non-portable leaves.
  EXPECT_EQ(groups.size(), 6u);
  EXPECT_FALSE(groups.contains("198.51.0.0/16"));
}

TEST(Pipeline, SiblingOriginMakesDelegatedCustomer) {
  Fixture f;
  // Make the Figure-2 "lease" origin a sibling of the holder: the verdict
  // must flip to delegated customer (this is the Vodafone FP mechanism in
  // reverse).
  f.orgs.add_mapping(Asn(15169), "ORG-SAME");
  f.orgs.add_mapping(Asn(8851), "ORG-SAME");
  auto groups = classify_map(f);
  EXPECT_EQ(groups.at("213.210.33.0/24"), InferenceGroup::kDelegatedCustomer);
}

TEST(Pipeline, RootOriginRelatednessAlsoCountsInGroup4) {
  Fixture f;
  // Origin related to the root's BGP origin (not its registered ASN):
  // still a delegated customer per step 5 rule 4.
  f.rels.add_p2c(Asn(8851), Asn(15169));
  auto groups = classify_map(f);
  EXPECT_EQ(groups.at("213.210.33.0/24"), InferenceGroup::kDelegatedCustomer);
}

TEST(Pipeline, RootCoveringFallbackFindsAggregate) {
  Fixture f;
  // Remove the exact root route; announce a covering /14 instead
  // (consecutive portable blocks aggregated by the holder).
  bgp::Rib rib2;
  rib2.add_route(P("213.208.0.0/14"), Asn(8851));
  rib2.add_route(P("213.210.33.0/24"), Asn(15169));
  auto graph = f.graph();
  Pipeline with_fallback(rib2, graph, {});
  auto results = with_fallback.classify(f.db);
  std::map<std::string, InferenceGroup> groups;
  for (const auto& r : results) groups[r.prefix.to_string()] = r.group;
  EXPECT_EQ(groups.at("213.210.33.0/24"), InferenceGroup::kLeasedWithRoot)
      << "root counted as originated through the covering /14";
  EXPECT_EQ(groups.at("213.210.2.0/23"), InferenceGroup::kAggregatedCustomer);

  Pipeline no_fallback(rib2, graph, {.root_covering_fallback = false});
  auto results2 = no_fallback.classify(f.db);
  std::map<std::string, InferenceGroup> groups2;
  for (const auto& r : results2) groups2[r.prefix.to_string()] = r.group;
  EXPECT_EQ(groups2.at("213.210.33.0/24"), InferenceGroup::kLeasedNoRoot)
      << "without the fallback the root looks dark (group 3)";
  EXPECT_EQ(groups2.at("213.210.2.0/23"), InferenceGroup::kUnused);
}

TEST(Pipeline, EvidenceFieldsPopulated) {
  Fixture f;
  auto graph = f.graph();
  Pipeline pipeline(f.rib, graph);
  for (const auto& r : pipeline.classify(f.db)) {
    if (r.prefix.to_string() != "213.210.33.0/24") continue;
    EXPECT_EQ(r.root_prefix.to_string(), "213.210.0.0/18");
    EXPECT_EQ(r.holder_org, "ORG-GCI1-RIPE");
    EXPECT_EQ(r.holder_asns, std::vector<Asn>{Asn(8851)});
    EXPECT_EQ(r.leaf_origins, std::vector<Asn>{Asn(15169)});
    EXPECT_EQ(r.root_origins, std::vector<Asn>{Asn(8851)});
    ASSERT_EQ(r.leaf_maintainers.size(), 1u);
    EXPECT_EQ(r.leaf_maintainers[0], "IPXO-MNT");
    EXPECT_TRUE(r.leased());
    return;
  }
  FAIL() << "leased prefix not classified";
}

TEST(Pipeline, CountGroups) {
  Fixture f;
  auto graph = f.graph();
  Pipeline pipeline(f.rib, graph);
  auto counts = Pipeline::count_groups(pipeline.classify(f.db));
  EXPECT_EQ(counts.unused, 1u);
  EXPECT_EQ(counts.aggregated_customer, 1u);
  EXPECT_EQ(counts.isp_customer, 1u);
  EXPECT_EQ(counts.leased_g3, 1u);
  EXPECT_EQ(counts.delegated_customer, 1u);
  EXPECT_EQ(counts.leased_g4, 1u);
  EXPECT_EQ(counts.leased(), 2u);
  EXPECT_EQ(counts.total(), 6u);
}

TEST(Pipeline, ExplainNarratesFigure2) {
  Fixture f;
  auto graph = f.graph();
  Pipeline pipeline(f.rib, graph);
  auto tree = whois::AllocationTree::build(f.db);
  std::string text = pipeline.explain(P("213.210.33.0/24"), tree, f.db);
  EXPECT_NE(text.find("IPXO-MNT"), std::string::npos);
  EXPECT_NE(text.find("ORG-GCI1-RIPE"), std::string::npos);
  EXPECT_NE(text.find("AS8851"), std::string::npos);
  EXPECT_NE(text.find("AS15169"), std::string::npos);
  EXPECT_NE(text.find("LEASED"), std::string::npos);
  EXPECT_NE(text.find("group 4"), std::string::npos);
}

TEST(Pipeline, ExplainUnknownPrefix) {
  Fixture f;
  auto graph = f.graph();
  Pipeline pipeline(f.rib, graph);
  auto tree = whois::AllocationTree::build(f.db);
  std::string text = pipeline.explain(P("8.8.8.0/24"), tree, f.db);
  EXPECT_NE(text.find("not present"), std::string::npos);
}

TEST(Pipeline, MoasLeafLeasedOnlyIfNoOriginRelated) {
  Fixture f;
  // The leased leaf gains a second origin that IS related to the holder:
  // any related origin is enough to clear the lease verdict (conservative,
  // matches the paper's multi-homing discussion in §7).
  f.rib.add_route(P("213.210.33.0/24"), Asn(8851));
  auto groups = classify_map(f);
  EXPECT_EQ(groups.at("213.210.33.0/24"), InferenceGroup::kDelegatedCustomer);
}

TEST(GroupMeta, NamesAndNumbers) {
  EXPECT_EQ(group_number(InferenceGroup::kUnused), 1);
  EXPECT_EQ(group_number(InferenceGroup::kAggregatedCustomer), 2);
  EXPECT_EQ(group_number(InferenceGroup::kIspCustomer), 3);
  EXPECT_EQ(group_number(InferenceGroup::kLeasedNoRoot), 3);
  EXPECT_EQ(group_number(InferenceGroup::kDelegatedCustomer), 4);
  EXPECT_EQ(group_number(InferenceGroup::kLeasedWithRoot), 4);
  EXPECT_TRUE(is_leased(InferenceGroup::kLeasedNoRoot));
  EXPECT_TRUE(is_leased(InferenceGroup::kLeasedWithRoot));
  EXPECT_FALSE(is_leased(InferenceGroup::kIspCustomer));
  EXPECT_EQ(group_name(InferenceGroup::kLeasedNoRoot), "leased(g3)");
}

}  // namespace
}  // namespace sublet::leasing
