#include "serve/query_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "snapshot/writer.h"
#include "util/rng.h"

namespace sublet::serve {
namespace {

using leasing::InferenceGroup;
using leasing::LeaseInference;

Prefix P(const char* s) { return *Prefix::parse(s); }

std::vector<LeaseInference> sample() {
  LeaseInference a;
  a.prefix = P("10.1.2.0/24");
  a.root_prefix = P("10.0.0.0/8");
  a.rir = whois::Rir::kRipe;
  a.group = InferenceGroup::kLeasedWithRoot;
  a.holder_org = "ORG-A";
  a.holder_asns = {Asn(64512)};
  a.leaf_origins = {Asn(65001)};
  a.root_origins = {Asn(64512)};
  a.leaf_maintainers = {"MNT-A"};
  a.netname = "NET-A";

  LeaseInference b;
  b.prefix = P("10.1.0.0/16");
  b.root_prefix = P("10.0.0.0/8");
  b.rir = whois::Rir::kRipe;
  b.group = InferenceGroup::kIspCustomer;
  b.holder_org = "Org, \"Quoted\" & Co\n(multi-line)";
  b.netname = "NET-B";

  LeaseInference c;
  c.prefix = P("172.16.0.0/12");
  c.root_prefix = P("172.16.0.0/12");
  c.rir = whois::Rir::kArin;
  c.group = InferenceGroup::kUnused;
  return {a, b, c};
}

class ServeEngine : public testing::Test {
 protected:
  void SetUp() override {
    auto snap = snapshot::Snapshot::from_bytes(
        snapshot::encode_snapshot(sample()));
    ASSERT_TRUE(snap) << snap.error().to_string();
    snap_ = std::make_unique<snapshot::Snapshot>(std::move(*snap));
    auto engine = QueryEngine::create(snap_.get());
    ASSERT_TRUE(engine) << engine.error().to_string();
    engine_ = std::make_unique<QueryEngine>(std::move(*engine));
  }

  std::unique_ptr<snapshot::Snapshot> snap_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(ServeEngine, ExactMatch) {
  auto hit = engine_->exact(P("10.1.2.0/24"));
  ASSERT_TRUE(hit);
  EXPECT_EQ(*hit, 0u);
  EXPECT_FALSE(engine_->exact(P("10.1.2.0/25")));
  EXPECT_FALSE(engine_->exact(P("192.0.2.0/24")));
}

TEST_F(ServeEngine, LongestPrefixMatch) {
  // A /32 inside the /24 resolves to the /24, not the enclosing /16.
  auto hit = engine_->longest_match(P("10.1.2.77/32"));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->first, P("10.1.2.0/24"));
  EXPECT_EQ(hit->second, 0u);

  // Outside the /24 but inside the /16.
  hit = engine_->longest_match(P("10.1.9.1/32"));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->first, P("10.1.0.0/16"));
  EXPECT_EQ(hit->second, 1u);

  // An exact leaf is its own longest match.
  hit = engine_->longest_match(P("172.16.0.0/12"));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->second, 2u);

  EXPECT_FALSE(engine_->longest_match(P("8.8.8.8/32")));
}

TEST_F(ServeEngine, MaterializeMatchesSnapshot) {
  auto record = engine_->materialize(0);
  EXPECT_EQ(record.prefix, P("10.1.2.0/24"));
  EXPECT_EQ(record.group, InferenceGroup::kLeasedWithRoot);
  EXPECT_EQ(record.holder_org, "ORG-A");
  EXPECT_EQ(record.leaf_maintainers, std::vector<std::string>{"MNT-A"});
}

TEST_F(ServeEngine, RecordJsonShape) {
  std::string json = engine_->record_json(0);
  EXPECT_EQ(json,
            "{\"found\":true,\"prefix\":\"10.1.2.0/24\",\"rir\":\"RIPE\","
            "\"group\":\"leased(g4)\",\"leased\":true,"
            "\"root_prefix\":\"10.0.0.0/8\",\"holder_org\":\"ORG-A\","
            "\"holder_asns\":[64512],\"leaf_origins\":[65001],"
            "\"root_origins\":[64512],\"facilitators\":[\"MNT-A\"],"
            "\"netname\":\"NET-A\"}");
}

TEST_F(ServeEngine, RecordJsonEscapesStrings) {
  std::string json = engine_->record_json(1);
  // The org contains a comma, double quotes, and a newline — all must be
  // escaped per RFC 8259 so the response stays a single line.
  EXPECT_NE(json.find("Org, \\\"Quoted\\\" & Co\\n(multi-line)"),
            std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST_F(ServeEngine, SizeMatchesRecords) {
  EXPECT_EQ(engine_->size(), 3u);
}

TEST_F(ServeEngine, SnapshotStatsJsonShape) {
  const std::string json = engine_->snapshot_stats_json();
  EXPECT_NE(json.find("\"records\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"lookup_backend\":\"stride24-8\""), std::string::npos)
      << json;
  // One leased(g4) /24 and one isp-customer /16 in the fixture.
  EXPECT_NE(json.find("\"leased(g4)\":{\"records\":1,\"addresses\":256}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"isp-customer\":{\"records\":1,\"addresses\":65536}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"leased\":{\"records\":1,\"addresses\":256}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"RIPE\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ARIN\":1"), std::string::npos) << json;
  // Record a resolves to leaf origin 65001; b and c have none.
  EXPECT_NE(json.find("\"top_origins\":{\"65001\":1}"), std::string::npos)
      << json;
  // The serving trie carries the stride table, and its 64 MiB first level
  // is visible in the memory breakdown.
  const std::string stride24 =
      "\"stride24\":" + std::to_string((std::size_t{1} << 24) * 4);
  EXPECT_NE(json.find(stride24), std::string::npos) << json;
  // The trie is the only structure the engine sizes, so it is the total.
  const std::string total =
      "\"total\":" + std::to_string(engine_->trie_memory().total());
  EXPECT_NE(json.find(total), std::string::npos) << json;
}

TEST_F(ServeEngine, TrieMemoryBreakdownIsConsistent) {
  const auto mem = engine_->trie_memory();
  EXPECT_EQ(mem.stride24_bytes, (std::size_t{1} << 24) * sizeof(std::uint32_t));
  EXPECT_GT(mem.node_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Random-world differentials: batched lookups against the per-query path,
// and the precomputed aggregate against a brute-force recount straight off
// the materialized records.

std::vector<LeaseInference> random_world(std::uint64_t seed,
                                         std::size_t count) {
  Rng rng(seed);
  std::vector<LeaseInference> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    LeaseInference rec;
    // Unique /24..32 leaves spread over 10.0.0.0/8: the index picks the
    // /24 block (so no two records collide), the rng picks how deep below
    // it the leaf sits.
    const auto block = static_cast<std::uint32_t>(i);
    const int len = static_cast<int>(rng.next_in(24, 32));
    rec.prefix = *Prefix::make(
        Ipv4Addr(0x0A000000u | (block << 8) |
                 static_cast<std::uint32_t>(rng.next_u64() & 0xFFu)),
        len);
    rec.root_prefix = *Prefix::make(Ipv4Addr(0x0A000000u), 8);
    rec.rir = whois::kAllRirs[rng.next_below(whois::kAllRirs.size())];
    rec.group = leasing::kAllInferenceGroups[rng.next_below(
        leasing::kAllInferenceGroups.size())];
    if (rng.chance(0.8)) {
      rec.leaf_origins = {Asn(static_cast<std::uint32_t>(
          64512 + rng.next_in(0, 15)))};  // small pool → real top-8 ranking
    }
    rec.holder_org = "ORG-" + std::to_string(i);
    records.push_back(std::move(rec));
  }
  return records;
}

class ServeEngineWorld : public testing::Test {
 protected:
  void SetUp() override {
    auto snap = snapshot::Snapshot::from_bytes(
        snapshot::encode_snapshot(random_world(271, 300)));
    ASSERT_TRUE(snap) << snap.error().to_string();
    snap_ = std::make_unique<snapshot::Snapshot>(std::move(*snap));
    auto engine = QueryEngine::create(snap_.get());
    ASSERT_TRUE(engine) << engine.error().to_string();
    engine_ = std::make_unique<QueryEngine>(std::move(*engine));
  }

  std::unique_ptr<snapshot::Snapshot> snap_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(ServeEngineWorld, LookupBatchMatchesLongestMatch) {
  Rng rng(99);
  std::vector<std::uint32_t> addrs;
  for (int i = 0; i < 600; ++i) {
    // Half the probes land in the populated 10.0.0.0–10.1.255.255 band
    // (guaranteed hits), half anywhere (mostly misses).
    std::uint32_t a = static_cast<std::uint32_t>(rng.next_u64());
    if (i % 2 == 0) a = 0x0A000000u | (a & 0x0001FFFFu);
    addrs.push_back(a);
  }
  std::vector<std::uint32_t> batch(addrs.size());
  engine_->lookup_batch(addrs, batch);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    const auto single =
        engine_->longest_match(*Prefix::make(Ipv4Addr(addrs[i]), 32));
    if (!single) {
      EXPECT_EQ(batch[i], QueryEngine::kNoRecord) << i;
    } else {
      EXPECT_EQ(batch[i], single->second) << i;
      ++hits;
    }
  }
  EXPECT_GT(hits, 0u);  // the probe mix must actually exercise the hit path
}

TEST_F(ServeEngineWorld, AggregateMatchesBruteForce) {
  const auto& agg = engine_->aggregate();

  // Brute force straight off the materialized records.
  std::array<QueryEngine::GroupAggregate,
             leasing::kAllInferenceGroups.size()>
      groups{};
  std::array<std::uint64_t, whois::kAllRirs.size()> rirs{};
  std::uint64_t leased_records = 0, leased_addresses = 0;
  std::map<std::uint32_t, std::uint64_t> origin_counts;
  for (std::uint32_t i = 0; i < engine_->size(); ++i) {
    const LeaseInference rec = engine_->materialize(i);
    const auto g = static_cast<std::size_t>(rec.group);
    const auto addresses = std::uint64_t{1} << (32 - rec.prefix.length());
    groups[g].records += 1;
    groups[g].addresses += addresses;
    if (leasing::is_leased(rec.group)) {
      leased_records += 1;
      leased_addresses += addresses;
    }
    rirs[static_cast<std::size_t>(rec.rir)] += 1;
    if (!rec.leaf_origins.empty()) {
      ++origin_counts[rec.leaf_origins.front().value()];
    }
  }

  for (std::size_t g = 0; g < groups.size(); ++g) {
    EXPECT_EQ(agg.groups[g].records, groups[g].records) << g;
    EXPECT_EQ(agg.groups[g].addresses, groups[g].addresses) << g;
  }
  for (std::size_t r = 0; r < rirs.size(); ++r) {
    EXPECT_EQ(agg.rir_records[r], rirs[r]) << r;
  }
  EXPECT_EQ(agg.leased_records, leased_records);
  EXPECT_EQ(agg.leased_addresses, leased_addresses);

  // Top origins: rank brute-force counts the same way (count desc, ASN
  // asc, top 8) and require an exact match, order included.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> ranked(
      origin_counts.begin(), origin_counts.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  ranked.resize(std::min<std::size_t>(ranked.size(), 8));
  EXPECT_EQ(agg.top_origins, ranked);
}

}  // namespace
}  // namespace sublet::serve
