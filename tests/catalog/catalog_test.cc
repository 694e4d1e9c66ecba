// Catalog subsystem tests (docs/TIMETRAVEL.md): delta encode/apply,
// catalog.idx round-trips and corruption, the authoring size guard, LRU
// caching, fault injection, and the differential byte-identity suite that
// pins "base + delta chain" == "full snapshot of epoch K".
#include "catalog/catalog.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "catalog/delta.h"
#include "obs/metrics.h"
#include "serve/engine_state.h"
#include "simnet/timeline_scenario.h"
#include "snapshot/writer.h"
#include "util/faultinject.h"

namespace sublet::catalog {
namespace {

using leasing::InferenceGroup;
using leasing::LeaseInference;

Prefix P(const char* s) { return *Prefix::parse(s); }

LeaseInference record(const char* prefix, InferenceGroup group,
                      const char* org = "ORG-A") {
  LeaseInference r;
  r.prefix = P(prefix);
  r.rir = whois::Rir::kRipe;
  r.group = group;
  r.root_prefix = P("10.0.0.0/8");
  r.holder_org = org;
  r.holder_asns = {Asn(64512)};
  r.leaf_origins = {Asn(65001)};
  r.root_origins = {Asn(64512)};
  r.leaf_maintainers = {"MNT-LEAF"};
  r.root_maintainers = {"MNT-ROOT"};
  r.netname = "NET";
  return r;
}

std::vector<LeaseInference> base_set() {
  return canonical_inferences({
      record("10.0.0.0/24", InferenceGroup::kLeasedNoRoot),
      record("10.0.1.0/24", InferenceGroup::kAggregatedCustomer),
      record("10.0.2.0/24", InferenceGroup::kIspCustomer),
      record("10.0.3.0/24", InferenceGroup::kUnused),
  });
}

std::string temp_dir(const char* tag) {
  return testing::TempDir() + "/sublet_catalog_" + tag + "_" +
         std::to_string(::getpid());
}

void remove_tree(const std::string& dir) {
  std::string cmd = "rm -rf '" + dir + "'";
  [[maybe_unused]] int rc = std::system(cmd.c_str());
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// --- delta format --------------------------------------------------------

TEST(CatalogDelta, CanonicalSortsAndKeepsLast) {
  std::vector<LeaseInference> raw;
  raw.push_back(record("10.0.1.0/24", InferenceGroup::kUnused));
  raw.push_back(record("10.0.0.0/24", InferenceGroup::kUnused));
  raw.push_back(record("10.0.1.0/24", InferenceGroup::kLeasedNoRoot));
  auto canonical = canonical_inferences(raw);
  ASSERT_EQ(canonical.size(), 2u);
  EXPECT_EQ(canonical[0].prefix.to_string(), "10.0.0.0/24");
  EXPECT_EQ(canonical[1].prefix.to_string(), "10.0.1.0/24");
  EXPECT_EQ(canonical[1].group, InferenceGroup::kLeasedNoRoot);
}

TEST(CatalogDelta, EncodeDiffAndMaterialize) {
  auto base = base_set();
  auto next = base;
  next[1].group = InferenceGroup::kLeasedWithRoot;  // changed
  next.erase(next.begin() + 3);                     // removed 10.0.3.0/24
  next.push_back(record("10.0.9.0/24", InferenceGroup::kLeasedNoRoot));
  next = canonical_inferences(std::move(next));

  auto bytes = encode_delta(100, base, 200, next);
  auto delta = Delta::from_bytes(bytes);
  ASSERT_TRUE(delta) << delta.error().to_string();
  EXPECT_EQ(delta->epoch(), 200u);
  EXPECT_EQ(delta->base_epoch(), 100u);
  ASSERT_EQ(delta->removed().size(), 1u);
  EXPECT_EQ(delta->removed()[0].prefix_len, 24);
  ASSERT_EQ(delta->rows().size(), 2u);  // one change + one insert
  LeaseInference changed = delta->materialize(0);
  EXPECT_EQ(changed.prefix.to_string(), "10.0.1.0/24");
  EXPECT_EQ(changed.group, InferenceGroup::kLeasedWithRoot);
  EXPECT_TRUE(same_inference(delta->materialize(1), next.back()));
}

TEST(CatalogDelta, IdenticalEpochsEncodeEmptyDelta) {
  auto base = base_set();
  auto bytes = encode_delta(100, base, 200, base);
  auto delta = Delta::from_bytes(bytes);
  ASSERT_TRUE(delta) << delta.error().to_string();
  EXPECT_EQ(delta->removed().size(), 0u);
  EXPECT_EQ(delta->rows().size(), 0u);
}

TEST(CatalogDelta, RejectsRowsOutOfCanonicalOrder) {
  // The encoder requires canonical lists; fed a list out of order or with
  // a repeated prefix, it writes rows the reader must refuse — the apply
  // path counts each upserted prefix once.
  const auto a = record("10.0.0.0/24", InferenceGroup::kLeasedNoRoot);
  const auto b = record("10.0.1.0/24", InferenceGroup::kLeasedNoRoot);
  EXPECT_TRUE(Delta::from_bytes(encode_delta(100, {}, 200, {a, b})));
  EXPECT_FALSE(Delta::from_bytes(encode_delta(100, {}, 200, {b, a})));
  EXPECT_FALSE(Delta::from_bytes(encode_delta(100, {}, 200, {a, a})));
}

TEST(CatalogDelta, CorruptionMatrix) {
  auto bytes = encode_delta(100, base_set(), 200,
                            canonical_inferences(base_set()));
  // Targeted header flips: magic, version, payload size, CRC.
  for (std::size_t off : {std::size_t{0}, std::size_t{8}, std::size_t{16},
                          std::size_t{24}}) {
    auto bad = bytes;
    bad[off] ^= 0x5A;
    EXPECT_FALSE(Delta::from_bytes(bad)) << "header flip at offset " << off;
  }
  // Every byte past the header is CRC-covered (section table + payload):
  // flip each one, the checksum must catch it, never a crash.
  constexpr std::size_t kHeader = 32;
  for (std::size_t off = kHeader; off < bytes.size(); ++off) {
    auto bad = bytes;
    bad[off] ^= 0x5A;
    auto delta = Delta::from_bytes(bad);
    EXPECT_FALSE(delta) << "byte flip at offset " << off << " not caught";
  }
  auto truncated = bytes;
  truncated.resize(bytes.size() / 2);
  EXPECT_FALSE(Delta::from_bytes(truncated));
  EXPECT_FALSE(Delta::from_bytes({}));
}

// --- catalog.idx ---------------------------------------------------------

TEST(CatalogIndex, RoundTrip) {
  std::vector<EpochEntry> entries;
  entries.push_back({100, EpochKind::kFull, 0, 4, 4096, "epoch-100.snap"});
  entries.push_back({200, EpochKind::kDelta, 100, 5, 256,
                     "epoch-200.dsnap"});
  entries.push_back({300, EpochKind::kDelta, 200, 5, 128,
                     "epoch-300.dsnap"});
  auto image = encode_index(entries);
  auto parsed = parse_index(image);
  ASSERT_TRUE(parsed) << parsed.error().to_string();
  ASSERT_EQ(parsed->size(), 3u);
  EXPECT_EQ((*parsed)[1].epoch, 200u);
  EXPECT_EQ((*parsed)[1].kind, EpochKind::kDelta);
  EXPECT_EQ((*parsed)[1].base_epoch, 100u);
  EXPECT_EQ((*parsed)[2].name, "epoch-300.dsnap");
}

TEST(CatalogIndex, RejectsBadStructure) {
  std::vector<EpochEntry> entries;
  entries.push_back({100, EpochKind::kFull, 0, 4, 4096, "a.snap"});
  entries.push_back({200, EpochKind::kDelta, 100, 4, 128, "b.dsnap"});
  auto image = encode_index(entries);

  // Targeted header flips (magic, version, payload size, CRC) plus every
  // CRC-covered payload byte.
  for (std::size_t off : {std::size_t{0}, std::size_t{8}, std::size_t{16},
                          std::size_t{24}}) {
    auto bad = image;
    bad[off] ^= 0xFF;
    EXPECT_FALSE(parse_index(bad)) << "header flip at offset " << off;
  }
  constexpr std::size_t kHeader = 32;
  for (std::size_t off = kHeader; off < image.size(); ++off) {
    auto bad = image;
    bad[off] ^= 0xFF;
    EXPECT_FALSE(parse_index(bad)) << "byte flip at offset " << off;
  }

  // Non-ascending epochs.
  auto swapped = entries;
  std::swap(swapped[0].epoch, swapped[1].epoch);
  swapped[1].base_epoch = 0;
  swapped[1].kind = EpochKind::kFull;
  swapped[0].kind = EpochKind::kDelta;
  swapped[0].base_epoch = 100;
  EXPECT_FALSE(parse_index(encode_index(swapped)));

  // Delta base that resolves to nothing.
  auto dangling = entries;
  dangling[1].base_epoch = 150;
  EXPECT_FALSE(parse_index(encode_index(dangling)));

  // File name escaping the directory.
  auto escape = entries;
  escape[0].name = "../evil.snap";
  EXPECT_FALSE(parse_index(encode_index(escape)));
}

// --- authoring + size guard ---------------------------------------------

TEST(CatalogAuthoring, InitAppendAndGuard) {
  std::string dir = temp_dir("author");
  remove_tree(dir);

  auto base = base_set();
  auto first = catalog_init(dir, 1000, base);
  ASSERT_TRUE(first) << first.error().to_string();
  EXPECT_EQ(first->kind, EpochKind::kFull);
  EXPECT_EQ(first->records, base.size());

  // A small change appends as a delta.
  auto next = base;
  next[0].group = InferenceGroup::kLeasedWithRoot;
  auto second = catalog_append(dir, 2000, next);
  ASSERT_TRUE(second) << second.error().to_string();
  EXPECT_EQ(second->kind, EpochKind::kDelta);
  EXPECT_EQ(second->base_epoch, 1000u);
  EXPECT_LT(second->bytes, first->bytes);

  // max_delta_fraction = 0 forces every append to a fresh full anchor.
  AppendOptions strict;
  strict.max_delta_fraction = 0.0;
  auto third = catalog_append(dir, 3000, next, strict);
  ASSERT_TRUE(third) << third.error().to_string();
  EXPECT_EQ(third->kind, EpochKind::kFull);
  EXPECT_EQ(third->base_epoch, 0u);

  // Epochs must move strictly forward.
  EXPECT_FALSE(catalog_append(dir, 2500, next));
  EXPECT_FALSE(catalog_append(dir, 3000, next));
  // init refuses an existing catalog.
  EXPECT_FALSE(catalog_init(dir, 9000, base));
  remove_tree(dir);
}

// --- Catalog: materialization, LRU, as-of, refresh -----------------------

struct CatalogFixture : ::testing::Test {
  void SetUp() override {
    dir = temp_dir("fixture");
    remove_tree(dir);
    epochs = {1000, 2000, 3000};
    sets.push_back(base_set());
    auto second = sets[0];
    second[0].group = InferenceGroup::kLeasedWithRoot;
    sets.push_back(canonical_inferences(second));
    auto third = sets[1];
    third.push_back(record("10.0.9.0/24", InferenceGroup::kLeasedNoRoot));
    sets.push_back(canonical_inferences(third));
    ASSERT_TRUE(catalog_init(dir, epochs[0], sets[0]));
    ASSERT_TRUE(catalog_append(dir, epochs[1], sets[1]));
    ASSERT_TRUE(catalog_append(dir, epochs[2], sets[2]));
  }
  void TearDown() override { remove_tree(dir); }

  std::string dir;
  std::vector<std::uint32_t> epochs;
  std::vector<std::vector<LeaseInference>> sets;
};

TEST_F(CatalogFixture, EpochAtAsOfSemantics) {
  auto opened = Catalog::open(dir);
  ASSERT_TRUE(opened) << opened.error().to_string();
  Catalog& catalog = **opened;
  EXPECT_EQ(catalog.epochs(), epochs);

  auto latest = catalog.epoch_at(0);
  ASSERT_TRUE(latest);
  EXPECT_EQ((*latest)->epoch(), 3000u);
  auto exact = catalog.epoch_at(2000);
  ASSERT_TRUE(exact);
  EXPECT_EQ((*exact)->epoch(), 2000u);
  auto between = catalog.epoch_at(2999);
  ASSERT_TRUE(between);
  EXPECT_EQ((*between)->epoch(), 2000u);
  auto after = catalog.epoch_at(999999);
  ASSERT_TRUE(after);
  EXPECT_EQ((*after)->epoch(), 3000u);
  EXPECT_FALSE(catalog.epoch_at(999));  // predates the catalog
}

TEST_F(CatalogFixture, MaterializedEpochsMatchRecords) {
  auto opened = Catalog::open(dir);
  ASSERT_TRUE(opened);
  for (std::size_t k = 0; k < epochs.size(); ++k) {
    auto state = (*opened)->materialize(epochs[k]);
    ASSERT_TRUE(state) << state.error().to_string();
    EXPECT_EQ((*state)->snapshot().record_count(), sets[k].size());
    for (const LeaseInference& expect : sets[k]) {
      auto idx = (*state)->engine().exact(expect.prefix);
      ASSERT_TRUE(idx.has_value())
          << expect.prefix.to_string() << " missing in epoch " << epochs[k];
      EXPECT_TRUE(same_inference((*state)->snapshot().materialize(*idx),
                                 expect));
    }
  }
}

TEST_F(CatalogFixture, LruEvictsHistoryButPinsLatest) {
  auto& evictions = obs::MetricsRegistry::global().counter(
      "sublet_catalog_lru_evictions_total");
  const std::uint64_t before = evictions.value();
  CatalogOptions options;
  options.lru_capacity = 1;
  auto opened = Catalog::open(dir, options);
  ASSERT_TRUE(opened);
  ASSERT_TRUE((*opened)->materialize(3000));
  ASSERT_TRUE((*opened)->materialize(1000));
  ASSERT_TRUE((*opened)->materialize(2000));  // evicts 1000
  EXPECT_LE((*opened)->cached_epochs(), 2u);  // capacity + nothing pinned yet
  EXPECT_GT(evictions.value(), before);
  // The latest epoch is pinned: still answerable after history churn.
  auto latest = (*opened)->epoch_at(0);
  ASSERT_TRUE(latest);
  EXPECT_EQ((*latest)->epoch(), 3000u);
}

TEST_F(CatalogFixture, RefreshPicksUpAppendedEpoch) {
  auto opened = Catalog::open(dir);
  ASSERT_TRUE(opened);
  auto before = (*opened)->epoch_at(0);
  ASSERT_TRUE(before);
  EXPECT_EQ((*before)->epoch(), 3000u);

  auto fourth = sets[2];
  fourth[0].group = InferenceGroup::kUnused;
  ASSERT_TRUE(catalog_append(dir, 4000, canonical_inferences(fourth)));

  auto refreshed = (*opened)->refresh();
  ASSERT_TRUE(refreshed) << refreshed.error().to_string();
  EXPECT_EQ((*refreshed)->epoch(), 4000u);
  ASSERT_EQ((*opened)->epochs().size(), 4u);
  // Previously materialized epochs survive the refresh untouched.
  auto old_epoch = (*opened)->epoch_at(2000);
  ASSERT_TRUE(old_epoch);
  EXPECT_EQ((*old_epoch)->epoch(), 2000u);
}

// --- fault injection -----------------------------------------------------

TEST_F(CatalogFixture, FaultSitesKeepServedEpochsAlive) {
  if (!fault::enabled()) GTEST_SKIP() << "fault injection compiled out";
  auto opened = Catalog::open(dir);
  ASSERT_TRUE(opened);
  auto served = (*opened)->materialize(2000);
  ASSERT_TRUE(served);

  {
    fault::ScopedFault fault_open("catalog.open", EIO);
    EXPECT_FALSE((*opened)->materialize(3000));
    EXPECT_GT(fault_open.trips(), 0u);
    // The epoch materialized before the fault still serves from cache.
    auto still = (*opened)->epoch_at(2000);
    ASSERT_TRUE(still);
    EXPECT_EQ((*still)->epoch(), 2000u);
  }
  {
    fault::ScopedFault fault_apply("catalog.apply_delta", EIO);
    EXPECT_FALSE((*opened)->materialize(3000));
    EXPECT_GT(fault_apply.trips(), 0u);
    auto still = (*opened)->epoch_at(2000);
    ASSERT_TRUE(still);
  }
  {
    fault::ScopedFault fault_index("catalog.index_parse", EIO);
    EXPECT_FALSE((*opened)->refresh());
    EXPECT_GT(fault_index.trips(), 0u);
    // A failed refresh leaves the known epoch list and cache serving.
    auto still = (*opened)->epoch_at(2000);
    ASSERT_TRUE(still);
    EXPECT_EQ((*opened)->epochs().size(), 3u);
  }
  // Disarmed: the previously failing epoch now materializes.
  auto recovered = (*opened)->materialize(3000);
  ASSERT_TRUE(recovered) << recovered.error().to_string();
}

TEST_F(CatalogFixture, OpenFaultFailsCleanly) {
  if (!fault::enabled()) GTEST_SKIP() << "fault injection compiled out";
  fault::ScopedFault fault_open("catalog.open", EACCES);
  EXPECT_FALSE(Catalog::open(dir));
}

// --- verify --------------------------------------------------------------

TEST_F(CatalogFixture, VerifyReportsBrokenChainsWithoutCrashing) {
  auto opened = Catalog::open(dir);
  ASSERT_TRUE(opened);
  auto clean = (*opened)->verify(/*deep=*/true);
  EXPECT_TRUE(clean.ok());
  ASSERT_EQ(clean.checks.size(), 3u);

  // Corrupt the middle delta: it AND the epoch chained on it go broken;
  // the full anchor stays healthy. verify never crashes.
  auto entries = read_index(dir);
  ASSERT_TRUE(entries);
  const std::string middle = dir + "/" + (*entries)[1].name;
  auto bytes = read_bytes(middle);
  bytes[bytes.size() / 2] ^= 0xFF;
  write_bytes(middle, bytes);

  auto report = (*opened)->verify();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.broken, 2u);
  EXPECT_TRUE(report.checks[0].ok);
  EXPECT_FALSE(report.checks[1].ok);
  EXPECT_FALSE(report.checks[2].ok);
  EXPECT_FALSE(report.checks[1].detail.empty());
}

// --- differential byte-identity over a seeded timeline -------------------

TEST(CatalogDifferential, DeltaChainIsByteIdenticalToFullSnapshots) {
  // A 10-epoch evolving world: the catalog writes 1 full + 9 deltas (the
  // deltas are small relative to the anchor), and reconstructing any epoch
  // K through the chain re-encodes byte-identical to the full snapshot the
  // authoring path would have written for K directly.
  sim::WorldConfig config;
  config.scale = 0.02;
  config.seed = 1234;
  sim::EpochSeriesOptions options;
  options.epochs = 10;
  sim::EpochSeries series = sim::build_epoch_series(config, options);

  std::string dir = temp_dir("differential");
  remove_tree(dir);
  for (std::size_t k = 0; k < series.timestamps.size(); ++k) {
    auto entry =
        k == 0 ? catalog_init(dir, series.timestamps[k], series.inferences[k])
               : catalog_append(dir, series.timestamps[k],
                                series.inferences[k]);
    ASSERT_TRUE(entry) << entry.error().to_string();
    if (k > 0) EXPECT_EQ(entry->kind, EpochKind::kDelta) << "epoch " << k;
  }

  // The series churns lease state over a fixed allocation forest, so its
  // deltas rewrite rows in place (the shared-trie apply); removals and
  // appends are driven by PatchedAggregateFollowsRemovalsAndTies below.
  bool patches = false;
  for (std::size_t k = 1; k < series.inferences.size(); ++k) {
    std::map<Prefix, LeaseInference> before;
    for (LeaseInference& r : canonical_inferences(series.inferences[k - 1])) {
      before.emplace(r.prefix, std::move(r));
    }
    for (const LeaseInference& r : series.inferences[k]) {
      auto it = before.find(r.prefix);
      if (it != before.end() && !same_inference(it->second, r)) {
        patches = true;
      }
    }
  }
  EXPECT_TRUE(patches);

  auto opened = Catalog::open(dir);
  ASSERT_TRUE(opened);
  for (std::size_t k = 0; k < series.timestamps.size(); ++k) {
    auto records = (*opened)->reconstruct(series.timestamps[k]);
    ASSERT_TRUE(records) << records.error().to_string();
    auto expected =
        snapshot::encode_snapshot(canonical_inferences(series.inferences[k]));
    auto chained = snapshot::encode_snapshot(*records);
    EXPECT_EQ(chained, expected)
        << "epoch " << series.timestamps[k] << " not byte-identical";

    // And the fast apply path answers exactly like a direct engine: the
    // patched aggregate (QueryEngine::create_patched) must reproduce a
    // from-scratch engine's STATS aggregate field-for-field, including the
    // incrementally maintained top-origin ranking.
    auto state = (*opened)->materialize(series.timestamps[k]);
    ASSERT_TRUE(state);
    EXPECT_EQ((*state)->snapshot().record_count(), records->size());

    std::string full_path = dir + "/full-" +
                            std::to_string(series.timestamps[k]) + ".snap";
    write_bytes(full_path, expected);
    auto fresh = serve::EngineState::load(full_path);
    ASSERT_TRUE(fresh) << fresh.error().to_string();
    const auto& got = (*state)->engine().aggregate();
    const auto& want = (*fresh)->engine().aggregate();
    for (std::size_t g = 0; g < want.groups.size(); ++g) {
      EXPECT_EQ(got.groups[g].records, want.groups[g].records)
          << "epoch " << series.timestamps[k] << " group " << g;
      EXPECT_EQ(got.groups[g].addresses, want.groups[g].addresses)
          << "epoch " << series.timestamps[k] << " group " << g;
    }
    EXPECT_EQ(got.rir_records, want.rir_records)
        << "epoch " << series.timestamps[k];
    EXPECT_EQ(got.leased_records, want.leased_records);
    EXPECT_EQ(got.leased_addresses, want.leased_addresses);
    EXPECT_EQ(got.top_origins, want.top_origins)
        << "epoch " << series.timestamps[k] << " origin ranking diverged";
  }
  remove_tree(dir);
}

TEST(CatalogDifferential, PatchedAggregateFollowsRemovalsAndTies) {
  // Hand-built epochs for the delta shapes the seeded series never
  // produces. Epoch 2 removes a row of the top leaf origin, rewrites a row
  // in place behind it (so the surviving-row map shifts) and appends one:
  // three origins end tied, broken toward the smaller ASN, and the
  // rewritten row's old origin drops out. Epoch 3 replaces every row.
  auto with_origin = [](const char* prefix, std::uint32_t asn) {
    LeaseInference r = record(prefix, InferenceGroup::kLeasedNoRoot);
    r.leaf_origins = {Asn(asn)};
    return r;
  };
  std::vector<std::vector<LeaseInference>> sets;
  sets.push_back(canonical_inferences({
      with_origin("10.0.0.0/24", 65010), with_origin("10.0.1.0/24", 65010),
      with_origin("10.0.2.0/24", 65010), with_origin("10.0.3.0/24", 65005),
      with_origin("10.0.4.0/24", 65005), with_origin("10.0.5.0/24", 65020)}));
  std::vector<LeaseInference> second(sets[0].begin() + 1, sets[0].end());
  second.back() = with_origin("10.0.5.0/24", 65040);
  second.back().group = InferenceGroup::kIspCustomer;
  second.push_back(with_origin("10.0.9.0/24", 65040));
  sets.push_back(canonical_inferences(std::move(second)));
  sets.push_back(canonical_inferences({with_origin("10.1.0.0/24", 65030),
                                       with_origin("10.1.1.0/24", 65030)}));
  const std::vector<std::uint32_t> epochs{1000, 2000, 3000};

  std::string dir = temp_dir("ties");
  remove_tree(dir);
  ASSERT_TRUE(catalog_init(dir, epochs[0], sets[0]));
  AppendOptions always_delta;
  always_delta.max_delta_fraction = 100.0;
  for (std::size_t k = 1; k < epochs.size(); ++k) {
    auto entry = catalog_append(dir, epochs[k], sets[k], always_delta);
    ASSERT_TRUE(entry) << entry.error().to_string();
    EXPECT_EQ(entry->kind, EpochKind::kDelta) << "epoch " << epochs[k];
  }

  auto opened = Catalog::open(dir);
  ASSERT_TRUE(opened);
  for (std::size_t k = 0; k < epochs.size(); ++k) {
    auto state = (*opened)->materialize(epochs[k]);
    ASSERT_TRUE(state) << state.error().to_string();
    const std::string full_path =
        dir + "/full-" + std::to_string(epochs[k]) + ".snap";
    write_bytes(full_path, snapshot::encode_snapshot(sets[k]));
    auto fresh = serve::EngineState::load(full_path);
    ASSERT_TRUE(fresh) << fresh.error().to_string();
    EXPECT_TRUE((*state)->engine().aggregate() ==
                (*fresh)->engine().aggregate())
        << "epoch " << epochs[k];
  }
  auto tied = (*opened)->materialize(epochs[1]);
  ASSERT_TRUE(tied);
  const std::vector<std::pair<std::uint32_t, std::uint64_t>> ranking{
      {65005, 2}, {65010, 2}, {65040, 2}};
  EXPECT_EQ((*tied)->engine().aggregate().top_origins, ranking);
  remove_tree(dir);
}

}  // namespace
}  // namespace sublet::catalog
