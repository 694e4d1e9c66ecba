// Differential property suite for the DIR-24-8 stride table
// (docs/PERF.md): the stride-accelerated query paths must be byte-identical
// to the brute-force oracle and to the plain Patricia walk, on
// random worlds and on the adversarial shapes that stress the two-level
// layout (default route, dense /24 sibling runs, >24-bit chains inside one
// bucket, duplicate last-wins), single-threaded and under concurrent
// readers.
#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "brute_force_prefix_map.h"
#include "netbase/prefix_trie.h"
#include "util/rng.h"

namespace sublet {
namespace {

Prefix P(const char* s) { return *Prefix::parse(s); }

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

/// Compare every query path of a stride-enabled trie against a strideless
/// Patricia control and the brute-force oracle for one query.
void expect_same_answers(const PrefixTrie<int>& stride,
                         const PrefixTrie<int>& patricia,
                         const BruteForcePrefixMap<int>& oracle,
                         const Prefix& query) {
  const auto want = deref(oracle.most_specific_covering(query));
  EXPECT_EQ(deref(stride.most_specific_covering(query)), want)
      << query.to_string();
  EXPECT_EQ(deref(patricia.most_specific_covering(query)), want)
      << query.to_string();
  const int* sf = stride.find(query);
  const int* pf = patricia.find(query);
  const int* of = oracle.find(query);
  ASSERT_EQ(sf != nullptr, of != nullptr) << query.to_string();
  ASSERT_EQ(pf != nullptr, of != nullptr) << query.to_string();
  if (of) {
    EXPECT_EQ(*sf, *of) << query.to_string();
    EXPECT_EQ(*pf, *of) << query.to_string();
  }
  EXPECT_EQ(deref(stride.all_covering(query)), deref(oracle.all_covering(query)))
      << query.to_string();
  // For a /32 query the handle path must agree with the covering walk.
  if (query.length() == 32) {
    const std::uint32_t handle = stride.lpm_handle(query.network().value());
    if (!want) {
      EXPECT_EQ(handle, PrefixTrie<int>::kNoEntry) << query.to_string();
    } else {
      ASSERT_NE(handle, PrefixTrie<int>::kNoEntry) << query.to_string();
      const auto [prefix, value] = stride.entry(handle);
      EXPECT_EQ(prefix, want->first) << query.to_string();
      EXPECT_EQ(*value, want->second) << query.to_string();
    }
  }
}

struct World {
  PrefixTrie<int> stride;
  PrefixTrie<int> patricia;
  BruteForcePrefixMap<int> oracle;
};

World build_world(const std::vector<std::pair<Prefix, int>>& entries) {
  World w;
  w.stride = PrefixTrie<int>::freeze(entries, TrieStride::kBuild);
  w.patricia = PrefixTrie<int>::freeze(entries, TrieStride::kOff);
  for (const auto& [p, v] : entries) w.oracle.insert(p, v);
  return w;
}

TEST(StrideTable, DefaultRouteCoversEverything) {
  auto w = build_world({{P("0.0.0.0/0"), 1}, {P("213.210.0.0/18"), 2}});
  ASSERT_TRUE(w.stride.has_stride_table());
  for (const char* q :
       {"0.0.0.0/32", "255.255.255.255/32", "10.1.2.3/32", "213.210.33.7/32",
        "213.210.0.0/18", "213.210.32.0/20", "8.8.8.8/32", "0.0.0.0/0",
        "128.0.0.0/1"}) {
    expect_same_answers(w.stride, w.patricia, w.oracle, P(q));
  }
}

TEST(StrideTable, DenseSlash24SiblingRun) {
  // 256 consecutive /24 siblings under a valued /16, with a handful of
  // deeper children: exercises whole-bucket fills, bucket boundaries, and
  // chunk creation inside an otherwise flat run.
  std::vector<std::pair<Prefix, int>> entries{{P("10.1.0.0/16"), 9999}};
  for (std::uint32_t i = 0; i < 256; ++i) {
    entries.emplace_back(
        *Prefix::make(Ipv4Addr(0x0A010000u | (i << 8)), 24),
        static_cast<int>(i));
  }
  entries.emplace_back(P("10.1.7.128/25"), 10'000);
  entries.emplace_back(P("10.1.7.192/26"), 10'001);
  entries.emplace_back(P("10.1.200.42/32"), 10'002);
  auto w = build_world(entries);
  Rng rng(99);
  for (int q = 0; q < 512; ++q) {
    // Queries concentrated on the populated /16 plus its borders.
    const std::uint32_t addr =
        0x0A000000u + static_cast<std::uint32_t>(rng.next_in(0, 0x2FFFF));
    const int len = static_cast<int>(rng.next_in(8, 32));
    expect_same_answers(w.stride, w.patricia, w.oracle,
                        *Prefix::make(Ipv4Addr(addr), len));
  }
  for (const char* q : {"10.1.0.0/24", "10.1.255.255/32", "10.2.0.0/24",
                        "10.0.255.255/32", "10.1.7.200/32", "10.1.7.129/32",
                        "10.1.7.0/25", "10.1.7.128/26"}) {
    expect_same_answers(w.stride, w.patricia, w.oracle, P(q));
  }
}

TEST(StrideTable, DeepChainsBeyondSlash24) {
  // A fully valued /8../32 chain: every length deeper than 24 lives inside
  // one bucket and lands in the second-level chunk; queries shallower than
  // the deepest cover force the walk fallback.
  std::vector<std::pair<Prefix, int>> entries;
  const std::uint32_t base = 0xC6336400u;  // 198.51.100.0
  for (int len = 8; len <= 32; ++len) {
    entries.emplace_back(*Prefix::make(Ipv4Addr(base), len), len);
  }
  // A second, valueless-interior chain in the same /24 via sparse lengths.
  entries.emplace_back(P("198.51.100.128/25"), 125);
  entries.emplace_back(P("198.51.100.160/27"), 127);
  auto w = build_world(entries);
  for (int len = 0; len <= 32; ++len) {
    expect_same_answers(w.stride, w.patricia, w.oracle,
                        *Prefix::make(Ipv4Addr(base), len));
  }
  for (const char* q : {"198.51.100.129/32", "198.51.100.161/32",
                        "198.51.100.191/32", "198.51.100.192/32",
                        "198.51.100.255/32", "198.51.101.0/32",
                        "198.51.100.160/28", "198.51.100.0/31"}) {
    expect_same_answers(w.stride, w.patricia, w.oracle, P(q));
  }
}

TEST(StrideTable, DuplicateEntriesLastWins) {
  auto w = build_world({{P("10.0.0.0/8"), 1},
                        {P("10.0.0.0/8"), 2},
                        {P("10.9.8.0/24"), 3},
                        {P("10.9.8.0/24"), 4},
                        {P("10.9.8.7/32"), 5},
                        {P("10.9.8.7/32"), 6}});
  EXPECT_EQ(w.stride.size(), 3u);
  for (const char* q : {"10.0.0.0/8", "10.9.8.0/24", "10.9.8.7/32",
                        "10.9.8.6/32", "10.64.0.0/10"}) {
    expect_same_answers(w.stride, w.patricia, w.oracle, P(q));
  }
}

TEST(StrideTable, EmptyTrie) {
  auto trie = PrefixTrie<int>::freeze({}, TrieStride::kBuild);
  ASSERT_TRUE(trie.has_stride_table());
  EXPECT_EQ(trie.lpm_handle(0), PrefixTrie<int>::kNoEntry);
  EXPECT_EQ(trie.lpm_handle(0xFFFFFFFFu), PrefixTrie<int>::kNoEntry);
  EXPECT_FALSE(trie.most_specific_covering(P("10.0.0.0/8")));
  EXPECT_EQ(trie.find(P("10.0.0.0/8")), nullptr);
}

TEST(StrideTable, BatchMatchesSingleLookup) {
  Rng rng(4242);
  std::vector<std::pair<Prefix, int>> entries;
  for (int i = 0; i < 2000; ++i) {
    const int len = static_cast<int>(rng.next_in(4, 32));
    entries.emplace_back(
        *Prefix::make(Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())),
                      len),
        i);
  }
  auto trie = PrefixTrie<int>::freeze(entries, TrieStride::kBuild);
  // Batch sizes around the prefetch distance catch edge handling (empty,
  // shorter than the lookahead, longer).
  for (std::size_t n : {0u, 1u, 3u, 8u, 9u, 64u, 1000u}) {
    std::vector<std::uint32_t> addrs(n);
    for (auto& a : addrs) a = static_cast<std::uint32_t>(rng.next_u64());
    std::vector<std::uint32_t> batch(n, 0xDEADBEEFu);
    trie.lookup_batch(addrs, batch);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(batch[i], trie.lpm_handle(addrs[i])) << i;
    }
  }
}

TEST(StrideTable, InsertDropsStrideTable) {
  auto trie = PrefixTrie<int>::freeze(
      {{P("10.0.0.0/8"), 1}, {P("10.20.30.0/24"), 2}}, TrieStride::kBuild);
  ASSERT_TRUE(trie.has_stride_table());
  const auto q = P("10.20.30.40/32");
  EXPECT_EQ(*trie.most_specific_covering(q)->second, 2);
  trie.insert(P("10.20.30.40/31"), 3);  // deeper than the frozen entries
  EXPECT_FALSE(trie.has_stride_table());
  EXPECT_EQ(*trie.most_specific_covering(q)->second, 3);
  trie.build_stride_table();  // rebuild; answers must hold on the fast path
  ASSERT_TRUE(trie.has_stride_table());
  EXPECT_EQ(*trie.most_specific_covering(q)->second, 3);
  EXPECT_EQ(*trie.entry(trie.lpm_handle(q.network().value())).second, 3);
}

TEST(StrideTable, MemoryBreakdownCountsEveryStructure) {
  auto trie = PrefixTrie<int>::freeze(
      {{P("10.0.0.0/8"), 1}, {P("10.20.30.192/26"), 2}}, TrieStride::kBuild);
  const auto mem = trie.memory_breakdown();
  EXPECT_EQ(mem.stride24_bytes, (std::size_t{1} << 24) * sizeof(std::uint32_t));
  EXPECT_GT(mem.stride8_bytes, 0u);  // the /26 forces one chunk
  EXPECT_GT(mem.jump_bytes, 0u);
  EXPECT_GT(mem.node_bytes, 0u);
  EXPECT_GT(mem.value_bytes, 0u);
  EXPECT_EQ(mem.total(), trie.memory_bytes());

  auto off = PrefixTrie<int>::freeze({{P("10.0.0.0/8"), 1}}, TrieStride::kOff);
  const auto none = off.memory_breakdown();
  EXPECT_EQ(none.stride24_bytes, 0u);
  EXPECT_EQ(none.stride8_bytes, 0u);
  EXPECT_EQ(none.total(), off.memory_bytes());
}

// Random-world differential: stride vs Patricia vs oracle across the whole
// query surface, including host-bit-dense corners.
class StrideDifferential : public testing::TestWithParam<std::uint64_t> {};

TEST_P(StrideDifferential, MatchesLegacyAndPatricia) {
  Rng rng(GetParam());
  std::vector<std::pair<Prefix, int>> entries;
  for (int i = 0; i < 500; ++i) {
    // Bias half the entries deeper than /24 so second-level chunks are
    // dense, not incidental.
    const int len = (i % 2 == 0) ? static_cast<int>(rng.next_in(0, 24))
                                 : static_cast<int>(rng.next_in(25, 32));
    entries.emplace_back(
        *Prefix::make(Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())),
                      len),
        i);
  }
  auto w = build_world(entries);
  ASSERT_EQ(w.stride.size(), w.oracle.size());
  for (int q = 0; q < 400; ++q) {
    const int len = static_cast<int>(rng.next_in(0, 32));
    const auto query = *Prefix::make(
        Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())), len);
    expect_same_answers(w.stride, w.patricia, w.oracle, query);
  }
  // Queries aimed at stored entries and their neighbors (guaranteed hits
  // and near-miss siblings).
  for (const auto& [p, v] : entries) {
    expect_same_answers(w.stride, w.patricia, w.oracle, p);
    expect_same_answers(w.stride, w.patricia, w.oracle,
                        *Prefix::make(Ipv4Addr(p.network().value() ^ 1u), 32));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrideDifferential,
                         testing::Values(17, 1729, 271828));

// Concurrent readers: the stride table is immutable after freeze, so N
// threads hammering batched and single lookups must agree with the answers
// precomputed single-threaded. Runs at 1 and 8 threads (the tsan preset
// picks this suite up by name).
class StrideThreads : public testing::TestWithParam<int> {};

TEST_P(StrideThreads, ConcurrentReadersAgree) {
  Rng rng(808);
  std::vector<std::pair<Prefix, int>> entries;
  for (int i = 0; i < 800; ++i) {
    const int len = static_cast<int>(rng.next_in(6, 32));
    entries.emplace_back(
        *Prefix::make(Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())),
                      len),
        i);
  }
  const auto trie = PrefixTrie<int>::freeze(entries, TrieStride::kBuild);
  std::vector<std::uint32_t> addrs(4096);
  for (auto& a : addrs) a = static_cast<std::uint32_t>(rng.next_u64());
  std::vector<std::uint32_t> expected(addrs.size());
  trie.lookup_batch(addrs, expected);

  const int threads = GetParam();
  std::vector<std::thread> workers;
  std::vector<int> failures(static_cast<std::size_t>(threads), 0);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<std::uint32_t> out(addrs.size());
      for (int round = 0; round < 4; ++round) {
        trie.lookup_batch(addrs, out);
        for (std::size_t i = 0; i < addrs.size(); ++i) {
          if (out[i] != expected[i]) ++failures[static_cast<std::size_t>(t)];
          if (trie.lpm_handle(addrs[i]) != expected[i]) {
            ++failures[static_cast<std::size_t>(t)];
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < threads; ++t) EXPECT_EQ(failures[t], 0) << t;
}

INSTANTIATE_TEST_SUITE_P(Threads, StrideThreads, testing::Values(1, 8));

}  // namespace
}  // namespace sublet
