#include "bgp/rib.h"

#include <gtest/gtest.h>

namespace sublet::bgp {
namespace {

Prefix P(const char* s) { return *Prefix::parse(s); }

TEST(Rib, AddRouteAndExact) {
  Rib rib;
  rib.add_route(P("213.210.0.0/18"), Asn(8851));
  const RouteInfo* info = rib.exact(P("213.210.0.0/18"));
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->origins, std::vector<Asn>{Asn(8851)});
  EXPECT_TRUE(info->originated_by(Asn(8851)));
  EXPECT_FALSE(info->originated_by(Asn(1)));
  EXPECT_EQ(rib.exact(P("213.210.0.0/19")), nullptr);
}

TEST(Rib, MultipleOriginsDeduplicated) {
  Rib rib;
  rib.add_route(P("10.0.0.0/8"), Asn(1));
  rib.add_route(P("10.0.0.0/8"), Asn(2));
  rib.add_route(P("10.0.0.0/8"), Asn(1));
  const RouteInfo* info = rib.exact(P("10.0.0.0/8"));
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->origins, (std::vector<Asn>{Asn(1), Asn(2)}));
  EXPECT_EQ(info->peer_observations, 3u);
}

TEST(Rib, LeastSpecificCoveringForAggregatedRoots) {
  // Paper step 4: a holder of consecutive portable blocks may aggregate;
  // the root's origin is found via the least-specific covering prefix.
  Rib rib;
  rib.add_route(P("213.208.0.0/14"), Asn(8851));  // aggregate
  rib.add_route(P("213.210.33.0/24"), Asn(15169));
  auto hit = rib.least_specific_covering(P("213.210.0.0/18"));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->first.to_string(), "213.208.0.0/14");
  EXPECT_EQ(hit->second->origins, std::vector<Asn>{Asn(8851)});
}

TEST(Rib, MostSpecificCovering) {
  Rib rib;
  rib.add_route(P("10.0.0.0/8"), Asn(1));
  rib.add_route(P("10.2.0.0/16"), Asn(2));
  auto hit = rib.most_specific_covering(P("10.2.3.0/24"));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->second->origins, std::vector<Asn>{Asn(2)});
}

TEST(Rib, FromSnapshot) {
  mrt::RibSnapshot snap;
  snap.timestamp = 1711929600;
  snap.peer_table.peers = {{Ipv4Addr(1), Ipv4Addr(2), Asn(3356)},
                           {Ipv4Addr(3), Ipv4Addr(4), Asn(174)}};
  mrt::RibPrefixRecord rec;
  rec.prefix = P("213.210.33.0/24");
  mrt::RibEntry e1;
  e1.peer_index = 0;
  e1.attributes.as_path.segments = {
      {mrt::AsPathSegmentType::kAsSequence, {Asn(3356), Asn(15169)}}};
  mrt::RibEntry e2;
  e2.peer_index = 1;
  e2.attributes.as_path.segments = {
      {mrt::AsPathSegmentType::kAsSequence, {Asn(174), Asn(9009), Asn(15169)}}};
  rec.entries = {e1, e2};
  snap.records.push_back(rec);

  Rib rib;
  rib.add_snapshot(snap);
  const RouteInfo* info = rib.exact(P("213.210.33.0/24"));
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->origins, std::vector<Asn>{Asn(15169)});
  EXPECT_EQ(info->peer_observations, 2u);
}

TEST(Rib, AsSetOriginsAllRecorded) {
  mrt::RibSnapshot snap;
  mrt::RibPrefixRecord rec;
  rec.prefix = P("10.0.0.0/8");
  mrt::RibEntry entry;
  entry.attributes.as_path.segments = {
      {mrt::AsPathSegmentType::kAsSequence, {Asn(1)}},
      {mrt::AsPathSegmentType::kAsSet, {Asn(20), Asn(10)}}};
  rec.entries = {entry};
  snap.records.push_back(rec);
  Rib rib;
  rib.add_snapshot(snap);
  EXPECT_EQ(rib.exact(P("10.0.0.0/8"))->origins,
            (std::vector<Asn>{Asn(10), Asn(20)}));
}

TEST(Rib, MultiCollectorUnion) {
  Rib rib;
  rib.add_route(P("10.0.0.0/8"), Asn(1));   // collector A
  rib.add_route(P("10.0.0.0/8"), Asn(99));  // collector B saw a different origin (MOAS)
  EXPECT_EQ(rib.exact(P("10.0.0.0/8"))->origins,
            (std::vector<Asn>{Asn(1), Asn(99)}));
}

TEST(Rib, RoutedAddressSpaceMergesOverlaps) {
  Rib rib;
  rib.add_route(P("10.0.0.0/8"), Asn(1));
  rib.add_route(P("10.1.0.0/16"), Asn(2));   // nested: counted once
  rib.add_route(P("192.0.2.0/24"), Asn(3));  // disjoint
  EXPECT_EQ(rib.routed_address_space(), (1u << 24) + 256u);
}

TEST(Rib, RoutedAddressSpaceAdjacent) {
  Rib rib;
  rib.add_route(P("10.0.0.0/24"), Asn(1));
  rib.add_route(P("10.0.1.0/24"), Asn(1));
  EXPECT_EQ(rib.routed_address_space(), 512u);
}

TEST(Rib, EmptyRib) {
  Rib rib;
  EXPECT_EQ(rib.prefix_count(), 0u);
  EXPECT_EQ(rib.routed_address_space(), 0u);
  EXPECT_TRUE(rib.all_origins().empty());
  EXPECT_FALSE(rib.least_specific_covering(P("10.0.0.0/8")));
}

TEST(Rib, AllOrigins) {
  Rib rib;
  rib.add_route(P("10.0.0.0/8"), Asn(1));
  rib.add_route(P("11.0.0.0/8"), Asn(2));
  rib.add_route(P("12.0.0.0/8"), Asn(1));
  auto origins = rib.all_origins();
  EXPECT_EQ(origins.size(), 2u);
  EXPECT_TRUE(origins.contains(Asn(1)));
  EXPECT_TRUE(origins.contains(Asn(2)));
}

TEST(Rib, FileRoundTripThroughMrt) {
  mrt::RibSnapshot snap;
  snap.timestamp = 1711929600;
  snap.peer_table.peers = {{Ipv4Addr(1), Ipv4Addr(2), Asn(3356)}};
  mrt::RibPrefixRecord rec;
  rec.prefix = P("198.51.100.0/24");
  mrt::RibEntry entry;
  entry.peer_index = 0;
  entry.attributes.origin = mrt::BgpOrigin::kIgp;
  entry.attributes.as_path.segments = {
      {mrt::AsPathSegmentType::kAsSequence, {Asn(3356), Asn(64496)}}};
  entry.attributes.next_hop = Ipv4Addr(2);
  rec.entries = {entry};
  snap.records.push_back(rec);

  std::string path = testing::TempDir() + "/sublet_bgp_rib.mrt";
  mrt::write_rib_file(path, snap);
  Rib rib;
  auto err = rib.add_file(path);
  EXPECT_FALSE(err) << err->to_string();
  ASSERT_NE(rib.exact(P("198.51.100.0/24")), nullptr);
  EXPECT_EQ(rib.exact(P("198.51.100.0/24"))->origins,
            std::vector<Asn>{Asn(64496)});
  std::remove(path.c_str());
}

TEST(Rib, AddFileMissing) {
  Rib rib;
  auto err = rib.add_file("/nonexistent/rib.mrt");
  EXPECT_TRUE(err);
}

TEST(Rib, FreezeSortsAndUniquesBatchedOrigins) {
  Rib rib;
  // Load-time appends arrive unsorted and with duplicates; freeze() must
  // leave the same sorted/unique origin set the old per-route insertion
  // maintained.
  rib.add_route(P("10.0.0.0/8"), Asn(64500));
  rib.add_route(P("10.0.0.0/8"), Asn(3));
  rib.add_route(P("10.0.0.0/8"), Asn(64500));
  rib.add_route(P("10.0.0.0/8"), Asn(7));
  rib.freeze();
  const RouteInfo* info = rib.exact(P("10.0.0.0/8"));
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->origins, (std::vector<Asn>{Asn(3), Asn(7), Asn(64500)}));
  EXPECT_EQ(info->peer_observations, 4u);
  EXPECT_TRUE(info->originated_by(Asn(7)));
  EXPECT_FALSE(info->originated_by(Asn(8)));
  // freeze() is idempotent and re-batching after a freeze works too.
  rib.freeze();
  rib.add_route(P("10.0.0.0/8"), Asn(5));
  info = rib.exact(P("10.0.0.0/8"));
  EXPECT_EQ(info->origins,
            (std::vector<Asn>{Asn(3), Asn(5), Asn(7), Asn(64500)}));
}

TEST(Rib, QueriesFinalizeLazilyWithoutExplicitFreeze) {
  Rib rib;
  rib.add_route(P("10.0.0.0/8"), Asn(9));
  rib.add_route(P("10.0.0.0/8"), Asn(2));
  // No freeze() call: the const accessors must still see sorted origins.
  auto hit = rib.most_specific_covering(P("10.1.0.0/16"));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->second->origins, (std::vector<Asn>{Asn(2), Asn(9)}));
  std::vector<Asn> visited;
  rib.visit([&](const Prefix&, const RouteInfo& info) {
    visited = info.origins;
  });
  EXPECT_EQ(visited, (std::vector<Asn>{Asn(2), Asn(9)}));
}

}  // namespace
}  // namespace sublet::bgp
