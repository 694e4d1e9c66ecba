// Rib property test: seeded random interleavings of every add path
// (add_route, add_snapshot, add_origins), explicit freezes and queries,
// checked after each query step against a brute-force std::map model.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "bgp/rib.h"
#include "util/rng.h"

namespace sublet::bgp {
namespace {

struct ModelRoute {
  std::set<Asn> origins;
  std::uint32_t entries = 0;
};
using Model = std::map<Prefix, ModelRoute>;

/// Prefixes drawn from a small nested pool so adds collide and cover.
Prefix random_prefix(Rng& rng) {
  static constexpr int kLengths[] = {8, 12, 16, 20, 24};
  int len = kLengths[rng.next_below(5)];
  std::uint32_t net = (10u << 24) | (static_cast<std::uint32_t>(
                                         rng.next_below(4)) << 16) |
                      (static_cast<std::uint32_t>(rng.next_below(4)) << 8);
  return *Prefix::make(Ipv4Addr(net), len);
}

Asn random_asn(Rng& rng) {
  return Asn(static_cast<std::uint32_t>(rng.next_in(1, 12)));
}

/// A random AS_PATH: empty, a sequence, or a sequence plus a trailing
/// AS_SET (possibly empty). Returns the origins the paper's rule takes.
std::vector<Asn> random_path(Rng& rng, mrt::AsPath& path) {
  std::vector<Asn> origins;
  switch (rng.next_below(4)) {
    case 0:
      return origins;  // empty AS_PATH: an entry with no origin
    case 1:
    case 2: {
      mrt::AsPathSegment seq;
      for (int i = 0, n = static_cast<int>(rng.next_in(1, 3)); i < n; ++i) {
        seq.asns.push_back(random_asn(rng));
      }
      origins.push_back(seq.asns.back());
      path.segments.push_back(std::move(seq));
      return origins;
    }
    default: {
      path.segments.push_back(
          {mrt::AsPathSegmentType::kAsSequence, {random_asn(rng)}});
      mrt::AsPathSegment set{mrt::AsPathSegmentType::kAsSet, {}};
      for (int i = 0, n = static_cast<int>(rng.next_below(3)); i < n; ++i) {
        set.asns.push_back(random_asn(rng));
      }
      origins = set.asns;
      path.segments.push_back(std::move(set));
      return origins;
    }
  }
}

void expect_route(const RouteInfo* info, const ModelRoute& want,
                  const Prefix& prefix) {
  ASSERT_NE(info, nullptr) << prefix.to_string();
  EXPECT_EQ(info->origins,
            std::vector<Asn>(want.origins.begin(), want.origins.end()))
      << prefix.to_string();
  EXPECT_EQ(info->peer_observations, want.entries) << prefix.to_string();
}

void check_queries(const Rib& rib, const Model& model, Rng& rng) {
  ASSERT_EQ(rib.prefix_count(), model.size());
  std::vector<std::pair<Prefix, RouteInfo>> visited;
  rib.visit([&](const Prefix& p, const RouteInfo& info) {
    visited.emplace_back(p, info);
  });
  ASSERT_EQ(visited.size(), model.size());
  auto it = model.begin();
  for (const auto& [prefix, info] : visited) {
    EXPECT_EQ(prefix, it->first);
    expect_route(&info, it->second, prefix);
    ++it;
  }

  for (int q = 0; q < 8; ++q) {
    Prefix query = random_prefix(rng);
    auto exact = model.find(query);
    if (exact == model.end()) {
      EXPECT_EQ(rib.exact(query), nullptr) << query.to_string();
    } else {
      expect_route(rib.exact(query), exact->second, query);
    }
    const Model::value_type* least = nullptr;
    const Model::value_type* most = nullptr;
    for (const auto& entry : model) {
      if (!entry.first.covers(query)) continue;
      if (!least || entry.first.length() < least->first.length()) {
        least = &entry;
      }
      if (!most || entry.first.length() > most->first.length()) most = &entry;
    }
    auto got_least = rib.least_specific_covering(query);
    auto got_most = rib.most_specific_covering(query);
    ASSERT_EQ(got_least.has_value(), least != nullptr) << query.to_string();
    ASSERT_EQ(got_most.has_value(), most != nullptr) << query.to_string();
    if (!least) continue;
    EXPECT_EQ(got_least->first, least->first);
    expect_route(got_least->second, least->second, least->first);
    EXPECT_EQ(got_most->first, most->first);
    expect_route(got_most->second, most->second, most->first);
  }
}

class RibProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(RibProperty, RandomAddsAndQueriesMatchBruteForceMap) {
  Rng rng(GetParam());
  Rib rib;
  Model model;
  for (int step = 0; step < 300; ++step) {
    switch (rng.next_below(6)) {
      case 0: {
        Prefix p = random_prefix(rng);
        Asn origin = random_asn(rng);
        rib.add_route(p, origin);
        model[p].origins.insert(origin);
        ++model[p].entries;
        break;
      }
      case 1: {
        mrt::RibSnapshot snap;
        for (int r = 0, n = static_cast<int>(rng.next_in(1, 4)); r < n; ++r) {
          mrt::RibPrefixRecord rec;
          rec.prefix = random_prefix(rng);
          ModelRoute& want = model[rec.prefix];
          for (int e = 0, m = static_cast<int>(rng.next_below(4)); e < m;
               ++e) {
            mrt::RibEntry entry;
            for (Asn a : random_path(rng, entry.attributes.as_path)) {
              want.origins.insert(a);
            }
            rec.entries.push_back(std::move(entry));
            ++want.entries;
          }
          snap.records.push_back(std::move(rec));
        }
        rib.add_snapshot(snap);
        break;
      }
      case 2: {
        mrt::OriginRun run;
        for (int r = 0, n = static_cast<int>(rng.next_in(1, 4)); r < n; ++r) {
          Prefix p = random_prefix(rng);
          std::vector<Asn> origins;
          for (int i = 0, m = static_cast<int>(rng.next_below(4)); i < m;
               ++i) {
            origins.push_back(random_asn(rng));
          }
          auto entries = static_cast<std::uint32_t>(rng.next_below(5));
          run.add(p, entries, origins);
          model[p].origins.insert(origins.begin(), origins.end());
          model[p].entries += entries;
        }
        rib.add_origins(std::move(run));
        break;
      }
      case 3:
        rib.freeze();
        break;
      default:
        check_queries(rib, model, rng);
        if (testing::Test::HasFatalFailure()) return;
        break;
    }
  }
  check_queries(rib, model, rng);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RibProperty, testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace sublet::bgp
