#include "netbase/prefix_trie.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "brute_force_prefix_map.h"
#include "util/rng.h"

namespace sublet {
namespace {

Prefix P(const char* s) { return *Prefix::parse(s); }

// Covering queries return (Prefix, const T*) pairs; deref the pointers so
// results from two different tries compare by value, not by address.
std::optional<std::pair<Prefix, int>> deref(
    const std::optional<std::pair<Prefix, const int*>>& hit) {
  if (!hit) return std::nullopt;
  return std::pair<Prefix, int>{hit->first, *hit->second};
}
std::vector<std::pair<Prefix, int>> deref(
    const std::vector<std::pair<Prefix, const int*>>& hits) {
  std::vector<std::pair<Prefix, int>> out;
  for (const auto& [p, v] : hits) out.emplace_back(p, *v);
  return out;
}

TEST(PrefixTrie, InsertAndFindExact) {
  PrefixTrie<std::string> trie;
  trie.insert(P("10.0.0.0/8"), "a");
  trie.insert(P("10.0.0.0/16"), "b");
  EXPECT_EQ(*trie.find(P("10.0.0.0/8")), "a");
  EXPECT_EQ(*trie.find(P("10.0.0.0/16")), "b");
  EXPECT_EQ(trie.find(P("10.0.0.0/12")), nullptr);
  EXPECT_EQ(trie.size(), 2u);
}

TEST(PrefixTrie, InsertOverwrites) {
  PrefixTrie<int> trie;
  trie.insert(P("10.0.0.0/8"), 1);
  trie.insert(P("10.0.0.0/8"), 2);
  EXPECT_EQ(*trie.find(P("10.0.0.0/8")), 2);
  EXPECT_EQ(trie.size(), 1u);
}

TEST(PrefixTrie, DefaultRouteEntry) {
  PrefixTrie<int> trie;
  trie.insert(*Prefix::make(Ipv4Addr(0), 0), 99);
  auto hit = trie.most_specific_covering(P("203.0.113.0/24"));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->first.length(), 0);
  EXPECT_EQ(*hit->second, 99);
}

TEST(PrefixTrie, MostSpecificCovering) {
  PrefixTrie<std::string> trie;
  trie.insert(P("213.210.0.0/18"), "root");
  trie.insert(P("213.210.32.0/19"), "mid");
  auto hit = trie.most_specific_covering(P("213.210.33.0/24"));
  ASSERT_TRUE(hit);
  EXPECT_EQ(*hit->second, "mid");
  EXPECT_EQ(hit->first.to_string(), "213.210.32.0/19");
}

TEST(PrefixTrie, MostSpecificCoveringIncludesExact) {
  PrefixTrie<std::string> trie;
  trie.insert(P("213.210.33.0/24"), "exact");
  trie.insert(P("213.210.0.0/18"), "root");
  auto hit = trie.most_specific_covering(P("213.210.33.0/24"));
  ASSERT_TRUE(hit);
  EXPECT_EQ(*hit->second, "exact");
}

TEST(PrefixTrie, LeastSpecificCovering) {
  PrefixTrie<std::string> trie;
  trie.insert(P("213.210.0.0/18"), "root");
  trie.insert(P("213.210.32.0/19"), "mid");
  trie.insert(P("213.210.33.0/24"), "leaf");
  auto hit = trie.least_specific_covering(P("213.210.33.0/24"));
  ASSERT_TRUE(hit);
  EXPECT_EQ(*hit->second, "root");
  EXPECT_EQ(hit->first.to_string(), "213.210.0.0/18");
}

TEST(PrefixTrie, CoveringMissesSiblings) {
  PrefixTrie<int> trie;
  trie.insert(P("213.210.32.0/24"), 1);
  EXPECT_FALSE(trie.most_specific_covering(P("213.210.33.0/24")));
  EXPECT_FALSE(trie.least_specific_covering(P("213.210.33.0/24")));
}

TEST(PrefixTrie, AllCoveringOrder) {
  PrefixTrie<int> trie;
  trie.insert(P("0.0.0.0/0"), 0);
  trie.insert(P("213.192.0.0/10"), 10);
  trie.insert(P("213.210.0.0/18"), 18);
  trie.insert(P("213.210.33.0/24"), 24);
  auto hits = trie.all_covering(P("213.210.33.0/24"));
  ASSERT_EQ(hits.size(), 4u);
  EXPECT_EQ(*hits[0].second, 0);
  EXPECT_EQ(*hits[1].second, 10);
  EXPECT_EQ(*hits[2].second, 18);
  EXPECT_EQ(*hits[3].second, 24);
}

TEST(PrefixTrie, Descendants) {
  PrefixTrie<int> trie;
  trie.insert(P("213.210.0.0/18"), 1);
  trie.insert(P("213.210.2.0/23"), 2);
  trie.insert(P("213.210.33.0/24"), 3);
  trie.insert(P("10.0.0.0/8"), 4);
  auto desc = trie.descendants(P("213.210.0.0/18"));
  ASSERT_EQ(desc.size(), 2u);
  EXPECT_EQ(*desc[0].second, 2);
  EXPECT_EQ(*desc[1].second, 3);
}

TEST(PrefixTrie, RootsAndLeaves) {
  // Mirror of the paper's Figure 2 allocation tree.
  PrefixTrie<std::string> trie;
  trie.insert(P("213.210.0.0/18"), "holder");       // portable root
  trie.insert(P("213.210.2.0/23"), "customer");     // leaf
  trie.insert(P("213.210.32.0/19"), "intermediate");
  trie.insert(P("213.210.33.0/24"), "ipxo-leased"); // leaf under intermediate
  trie.insert(P("198.51.100.0/24"), "lone");        // root that is also a leaf

  auto roots = trie.roots();
  ASSERT_EQ(roots.size(), 2u);
  EXPECT_EQ(roots[0].first.to_string(), "198.51.100.0/24");
  EXPECT_EQ(roots[1].first.to_string(), "213.210.0.0/18");

  auto leaves = trie.leaves();
  ASSERT_EQ(leaves.size(), 3u);
  EXPECT_EQ(*leaves[0].second, "lone");
  EXPECT_EQ(*leaves[1].second, "customer");
  EXPECT_EQ(*leaves[2].second, "ipxo-leased");
}

TEST(PrefixTrie, VisitInAddressOrder) {
  PrefixTrie<int> trie;
  trie.insert(P("192.0.2.0/24"), 3);
  trie.insert(P("10.0.0.0/8"), 1);
  trie.insert(P("172.16.0.0/12"), 2);
  std::vector<int> order;
  trie.visit([&](const Prefix&, const int& v) { order.push_back(v); });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(PrefixTrie, VisitLessSpecificBeforeMoreSpecific) {
  PrefixTrie<int> trie;
  trie.insert(P("10.0.0.0/16"), 2);
  trie.insert(P("10.0.0.0/8"), 1);
  std::vector<int> order;
  trie.visit([&](const Prefix&, const int& v) { order.push_back(v); });
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(PrefixTrie, EmptyTrieQueries) {
  PrefixTrie<int> trie;
  EXPECT_TRUE(trie.empty());
  EXPECT_FALSE(trie.most_specific_covering(P("10.0.0.0/8")));
  EXPECT_TRUE(trie.roots().empty());
  EXPECT_TRUE(trie.leaves().empty());
  EXPECT_TRUE(trie.descendants(P("0.0.0.0/0")).empty());
}

TEST(PrefixTrie, SlashZeroIsUniversalCover) {
  PrefixTrie<int> trie;
  trie.insert(P("0.0.0.0/0"), 1);
  trie.insert(P("213.210.0.0/18"), 2);
  for (const char* q : {"0.0.0.0/32", "255.255.255.255/32", "10.0.0.0/8",
                        "213.210.33.0/24", "0.0.0.0/0"}) {
    auto least = trie.least_specific_covering(P(q));
    ASSERT_TRUE(least) << q;
    EXPECT_EQ(least->first.length(), 0) << q;
    EXPECT_EQ(*least->second, 1) << q;
  }
  // /0 is also in every all_covering chain, first.
  auto chain = trie.all_covering(P("213.210.32.0/20"));
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(*chain[0].second, 1);
  EXPECT_EQ(*chain[1].second, 2);
}

TEST(PrefixTrie, HostRoutesAtAddressSpaceEdges) {
  PrefixTrie<std::string> trie;
  trie.insert(P("0.0.0.0/32"), "zero");
  trie.insert(P("255.255.255.255/32"), "ones");
  EXPECT_EQ(*trie.find(P("0.0.0.0/32")), "zero");
  EXPECT_EQ(*trie.find(P("255.255.255.255/32")), "ones");
  EXPECT_EQ(trie.find(P("128.0.0.0/32")), nullptr);
  auto hit = trie.most_specific_covering(P("255.255.255.255/32"));
  ASSERT_TRUE(hit);
  EXPECT_EQ(*hit->second, "ones");
  // Address-order visit: 0.0.0.0/32 first, 255.255.255.255/32 last.
  std::vector<std::string> order;
  trie.visit([&](const Prefix&, const std::string& v) { order.push_back(v); });
  EXPECT_EQ(order, (std::vector<std::string>{"zero", "ones"}));
  auto leaves = trie.leaves();
  ASSERT_EQ(leaves.size(), 2u);
  EXPECT_EQ(leaves[0].first.to_string(), "0.0.0.0/32");
  EXPECT_EQ(leaves[1].first.to_string(), "255.255.255.255/32");
}

TEST(PrefixTrie, DescendantsExcludeQueryPrefix) {
  PrefixTrie<int> trie;
  trie.insert(P("213.210.0.0/18"), 1);  // valued at the query itself
  trie.insert(P("213.210.2.0/23"), 2);
  auto desc = trie.descendants(P("213.210.0.0/18"));
  ASSERT_EQ(desc.size(), 1u);
  EXPECT_EQ(*desc[0].second, 2);
  // Also when the query prefix has no node of its own (mid-edge query).
  auto mid = trie.descendants(P("213.210.0.0/16"));
  ASSERT_EQ(mid.size(), 2u);
  EXPECT_EQ(*mid[0].second, 1);
  EXPECT_EQ(*mid[1].second, 2);
  // Sibling space: no descendants.
  EXPECT_TRUE(trie.descendants(P("213.211.0.0/16")).empty());
}

// Regression for the old collect_leaves O(n²) shape: a deep chain where
// every node on the path is valued must yield exactly the deepest entry,
// in one linear pass.
TEST(PrefixTrie, LeavesDeepValuedChain) {
  PrefixTrie<int> trie;
  std::uint32_t base = 0x0A000000;  // 10.0.0.0
  for (int len = 8; len <= 32; ++len) {
    trie.insert(*Prefix::make(Ipv4Addr(base), len), len);
  }
  auto leaves = trie.leaves();
  ASSERT_EQ(leaves.size(), 1u);
  EXPECT_EQ(leaves[0].first.length(), 32);
  EXPECT_EQ(*leaves[0].second, 32);
  auto roots = trie.roots();
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].first.length(), 8);
  // Many deep valued chains side by side stay address-ordered.
  for (std::uint32_t i = 0; i < 64; ++i) {
    std::uint32_t net = 0xC0000000 | (i << 16);  // 192.i/16 chains
    for (int len = 16; len <= 24; ++len) {
      trie.insert(*Prefix::make(Ipv4Addr(net), len), static_cast<int>(i));
    }
  }
  leaves = trie.leaves();
  ASSERT_EQ(leaves.size(), 65u);
  for (std::size_t i = 1; i < leaves.size(); ++i) {
    EXPECT_LT(leaves[i - 1].first, leaves[i].first);
  }
}

TEST(PrefixTrie, FreezeMatchesIncrementalConstruction) {
  std::vector<std::pair<Prefix, int>> entries = {
      {P("213.210.0.0/18"), 1},  {P("213.210.2.0/23"), 2},
      {P("213.210.32.0/19"), 3}, {P("213.210.33.0/24"), 4},
      {P("198.51.100.0/24"), 5}, {P("0.0.0.0/0"), 6},
      {P("10.0.0.0/8"), 7},      {P("10.128.0.0/9"), 8},
  };
  PrefixTrie<int> incremental;
  for (const auto& [p, v] : entries) incremental.insert(p, v);
  auto frozen = PrefixTrie<int>::freeze(entries);

  EXPECT_EQ(frozen.size(), incremental.size());
  auto dump = [](const PrefixTrie<int>& t) {
    std::vector<std::pair<Prefix, int>> out;
    t.visit([&](const Prefix& p, const int& v) { out.emplace_back(p, v); });
    return out;
  };
  EXPECT_EQ(dump(frozen), dump(incremental));
  auto pairs = [](const std::vector<std::pair<Prefix, const int*>>& v) {
    std::vector<std::pair<Prefix, int>> out;
    for (const auto& [p, ptr] : v) out.emplace_back(p, *ptr);
    return out;
  };
  EXPECT_EQ(pairs(frozen.roots()), pairs(incremental.roots()));
  EXPECT_EQ(pairs(frozen.leaves()), pairs(incremental.leaves()));
  for (const auto& [p, v] : entries) {
    ASSERT_NE(frozen.find(p), nullptr);
    EXPECT_EQ(*frozen.find(p), v);
  }
}

TEST(PrefixTrie, FreezeDuplicateKeepsLast) {
  std::vector<std::pair<Prefix, int>> entries = {
      {P("10.0.0.0/8"), 1}, {P("192.0.2.0/24"), 2}, {P("10.0.0.0/8"), 3}};
  auto trie = PrefixTrie<int>::freeze(entries);
  EXPECT_EQ(trie.size(), 2u);
  EXPECT_EQ(*trie.find(P("10.0.0.0/8")), 3);
}

TEST(PrefixTrie, InsertAfterFreezeInvalidatesJumpTable) {
  // freeze() enables the level-compressed covering fast path; a later
  // insert must not serve covering queries from the stale table.
  auto trie = PrefixTrie<int>::freeze(
      {{P("10.0.0.0/8"), 1}, {P("10.20.30.0/24"), 2}});
  auto q = P("10.20.30.40/32");
  ASSERT_TRUE(trie.most_specific_covering(q));
  EXPECT_EQ(*trie.most_specific_covering(q)->second, 2);
  trie.insert(P("10.20.30.40/31"), 3);   // deeper than the frozen entries
  trie.insert(P("0.0.0.0/0"), 4);        // shallower than all of them
  EXPECT_EQ(*trie.most_specific_covering(q)->second, 3);
  EXPECT_EQ(*trie.least_specific_covering(q)->second, 4);
  trie.build_jump_table();  // re-enable the fast path; answers must hold
  EXPECT_EQ(*trie.most_specific_covering(q)->second, 3);
  EXPECT_EQ(*trie.least_specific_covering(q)->second, 4);
}

// Property: incremental insert and bulk freeze agree on the whole query
// surface for random entry sets.
class TrieFreezeProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(TrieFreezeProperty, FreezeEquivalentToInsert) {
  Rng rng(GetParam());
  PrefixTrie<int> incremental;
  std::vector<std::pair<Prefix, int>> entries;
  for (int i = 0; i < 400; ++i) {
    int len = static_cast<int>(rng.next_in(0, 32));
    auto p = *Prefix::make(Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())),
                           len);
    incremental.insert(p, i);
    entries.emplace_back(p, i);
  }
  auto frozen = PrefixTrie<int>::freeze(entries);
  EXPECT_EQ(frozen.size(), incremental.size());
  EXPECT_EQ(frozen.node_count(), incremental.node_count());

  std::vector<std::pair<Prefix, int>> a, b;
  incremental.visit([&](const Prefix& p, const int& v) { a.emplace_back(p, v); });
  frozen.visit([&](const Prefix& p, const int& v) { b.emplace_back(p, v); });
  EXPECT_EQ(a, b);

  auto keys = [](const std::vector<std::pair<Prefix, const int*>>& v) {
    std::vector<Prefix> out;
    for (const auto& [p, ptr] : v) out.push_back(p);
    return out;
  };
  EXPECT_EQ(keys(frozen.roots()), keys(incremental.roots()));
  EXPECT_EQ(keys(frozen.leaves()), keys(incremental.leaves()));

  for (int q = 0; q < 200; ++q) {
    int len = static_cast<int>(rng.next_in(0, 32));
    auto query = *Prefix::make(
        Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())), len);
    auto fi = frozen.find(query);
    auto ii = incremental.find(query);
    ASSERT_EQ(fi != nullptr, ii != nullptr);
    if (fi) EXPECT_EQ(*fi, *ii);
    EXPECT_EQ(deref(frozen.most_specific_covering(query)),
              deref(incremental.most_specific_covering(query)));
    EXPECT_EQ(deref(frozen.least_specific_covering(query)),
              deref(incremental.least_specific_covering(query)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieFreezeProperty,
                         testing::Values(7, 77, 777));

// Differential property: the arena trie agrees with the brute-force oracle
// on every query type, for random workloads.
class TrieLegacyDifferential : public testing::TestWithParam<std::uint64_t> {};

TEST_P(TrieLegacyDifferential, MatchesLegacyTrie) {
  Rng rng(GetParam());
  PrefixTrie<int> trie;
  BruteForcePrefixMap<int> oracle;
  for (int i = 0; i < 300; ++i) {
    int len = static_cast<int>(rng.next_in(0, 30));
    auto p = *Prefix::make(Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())),
                           len);
    trie.insert(p, i);
    oracle.insert(p, i);
  }
  ASSERT_EQ(trie.size(), oracle.size());

  std::vector<std::pair<Prefix, int>> a, b;
  trie.visit([&](const Prefix& p, const int& v) { a.emplace_back(p, v); });
  oracle.visit([&](const Prefix& p, const int& v) { b.emplace_back(p, v); });
  EXPECT_EQ(a, b);

  auto keys = [](const std::vector<std::pair<Prefix, const int*>>& v) {
    std::vector<Prefix> out;
    for (const auto& [p, ptr] : v) out.push_back(p);
    return out;
  };
  EXPECT_EQ(keys(trie.roots()), keys(oracle.roots()));
  EXPECT_EQ(keys(trie.leaves()), keys(oracle.leaves()));

  for (int q = 0; q < 300; ++q) {
    int len = static_cast<int>(rng.next_in(0, 32));
    auto query = *Prefix::make(
        Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())), len);
    EXPECT_EQ(deref(trie.most_specific_covering(query)),
              deref(oracle.most_specific_covering(query)));
    EXPECT_EQ(deref(trie.least_specific_covering(query)),
              deref(oracle.least_specific_covering(query)));
    EXPECT_EQ(deref(trie.all_covering(query)), deref(oracle.all_covering(query)));
    EXPECT_EQ(keys(trie.descendants(query)), keys(oracle.descendants(query)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieLegacyDifferential,
                         testing::Values(13, 29, 31337));

// Property: for random entry sets, most_specific_covering agrees with a
// brute-force scan.
class TrieLookupProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(TrieLookupProperty, MatchesBruteForce) {
  Rng rng(GetParam());
  PrefixTrie<int> trie;
  std::vector<Prefix> entries;
  for (int i = 0; i < 300; ++i) {
    int len = static_cast<int>(rng.next_in(8, 28));
    auto p = *Prefix::make(Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())),
                           len);
    trie.insert(p, i);
    entries.push_back(p);
  }
  for (int q = 0; q < 200; ++q) {
    int len = static_cast<int>(rng.next_in(16, 32));
    auto query = *Prefix::make(
        Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())), len);

    std::optional<Prefix> best_most, best_least;
    for (const auto& e : entries) {
      if (!e.covers(query)) continue;
      if (!best_most || e.length() > best_most->length()) best_most = e;
      if (!best_least || e.length() < best_least->length()) best_least = e;
    }
    auto got_most = trie.most_specific_covering(query);
    auto got_least = trie.least_specific_covering(query);
    EXPECT_EQ(got_most.has_value(), best_most.has_value());
    EXPECT_EQ(got_least.has_value(), best_least.has_value());
    if (best_most && got_most) EXPECT_EQ(got_most->first, *best_most);
    if (best_least && got_least) EXPECT_EQ(got_least->first, *best_least);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieLookupProperty,
                         testing::Values(101, 202, 303, 404, 505));

// Property: roots() and leaves() partition consistently with covers().
class TrieForestProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(TrieForestProperty, RootsCoverAllLeavesAreUncovered) {
  Rng rng(GetParam());
  PrefixTrie<int> trie;
  std::vector<Prefix> entries;
  for (int i = 0; i < 200; ++i) {
    int len = static_cast<int>(rng.next_in(8, 24));
    auto p = *Prefix::make(Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())),
                           len);
    if (!trie.find(p)) {
      trie.insert(p, i);
      entries.push_back(p);
    }
  }
  auto roots = trie.roots();
  auto leaves = trie.leaves();

  // Every entry is covered by exactly one root.
  for (const auto& e : entries) {
    int covering_roots = 0;
    for (const auto& [rp, rv] : roots) {
      if (rp.covers(e)) ++covering_roots;
    }
    EXPECT_EQ(covering_roots, 1) << e.to_string();
  }
  // No leaf strictly covers another entry.
  for (const auto& [lp, lv] : leaves) {
    for (const auto& e : entries) {
      if (e != lp) EXPECT_FALSE(lp.covers(e)) << lp.to_string() << " covers "
                                              << e.to_string();
    }
  }
  // Roots are mutually non-covering.
  for (const auto& [a, av] : roots) {
    for (const auto& [b, bv] : roots) {
      if (a != b) EXPECT_FALSE(a.covers(b));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieForestProperty,
                         testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace sublet
