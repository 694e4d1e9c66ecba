// Time-travel serving wire tests (docs/TIMETRAVEL.md): AT on the text
// verbs, the HISTORY verb, the binary frame epoch field, catalog STATS/
// RELOAD, a snapshot server as the one epoch 0, STATS read from one view
// while RELOADs publish new epochs, and a hammer that queries three
// epochs while the catalog is appended to. Suite names carry
// Catalog/History/Serve so the tsan preset picks them up.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/delta.h"
#include "serve/client.h"
#include "serve/engine_state.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "snapshot/writer.h"

namespace sublet::serve {
namespace {

using catalog::canonical_inferences;
using leasing::InferenceGroup;
using leasing::LeaseInference;

Prefix P(const char* s) { return *Prefix::parse(s); }

LeaseInference record(const char* prefix, InferenceGroup group) {
  LeaseInference r;
  r.prefix = P(prefix);
  r.rir = whois::Rir::kRipe;
  r.group = group;
  r.root_prefix = P("10.0.0.0/8");
  r.holder_org = "ORG-A";
  r.holder_asns = {Asn(64512)};
  r.netname = "NET";
  return r;
}

/// A three-epoch catalog with scripted transitions, served in catalog
/// mode. 10.0.0.0/24 flips aggregated-customer -> leased at epoch 2000;
/// 10.0.1.0/24 disappears at epoch 2000; 10.0.2.0/24 never changes.
struct CatalogRig {
  CatalogRig() {
    dir = testing::TempDir() + "/sublet_timetravel_" +
          std::to_string(::getpid()) + "_" + std::to_string(counter()++);
    std::string cmd = "rm -rf '" + dir + "'";
    [[maybe_unused]] int rc = std::system(cmd.c_str());

    auto e1 = canonical_inferences(
        {record("10.0.0.0/24", InferenceGroup::kAggregatedCustomer),
         record("10.0.1.0/24", InferenceGroup::kLeasedNoRoot),
         record("10.0.2.0/24", InferenceGroup::kIspCustomer)});
    auto e2 = canonical_inferences(
        {record("10.0.0.0/24", InferenceGroup::kLeasedWithRoot),
         record("10.0.2.0/24", InferenceGroup::kIspCustomer)});
    EXPECT_TRUE(catalog::catalog_init(dir, 1000, e1));
    EXPECT_TRUE(catalog::catalog_append(dir, 2000, e2));
    EXPECT_TRUE(catalog::catalog_append(dir, 3000, e2));

    auto opened = catalog::Catalog::open(dir);
    EXPECT_TRUE(opened) << opened.error().to_string();
    source = std::shared_ptr<EpochSource>(std::move(*opened));
    auto initial = source->epoch_at(0);
    EXPECT_TRUE(initial) << initial.error().to_string();
    server = std::make_unique<QueryServer>(source, std::move(*initial),
                                           QueryServer::Options{
                                               .port = 0, .shards = 1});
  }

  ~CatalogRig() {
    std::string cmd = "rm -rf '" + dir + "'";
    [[maybe_unused]] int rc = std::system(cmd.c_str());
  }

  /// Append epoch 4000 where 10.0.2.0/24 becomes leased.
  void append_epoch_4000() {
    auto e4 = canonical_inferences(
        {record("10.0.0.0/24", InferenceGroup::kLeasedWithRoot),
         record("10.0.2.0/24", InferenceGroup::kLeasedNoRoot)});
    ASSERT_TRUE(catalog::catalog_append(dir, 4000, e4));
  }

  static int& counter() {
    static int n = 0;
    return n;
  }

  std::string dir;
  std::shared_ptr<EpochSource> source;
  std::unique_ptr<QueryServer> server;
};

// --- AT on the text verbs ------------------------------------------------

TEST(CatalogAtVerb, AnswersEveryEpochWithAsOfSemantics) {
  CatalogRig rig;
  // Exact epoch timestamps.
  std::string e1 = rig.server->handle_request("EXACT 10.0.0.0/24 AT 1000");
  EXPECT_NE(e1.find("\"group\":\"aggregated-customer\""), std::string::npos)
      << e1;
  EXPECT_NE(e1.find("\"epoch\":1000"), std::string::npos) << e1;
  std::string e2 = rig.server->handle_request("EXACT 10.0.0.0/24 AT 2000");
  EXPECT_NE(e2.find("\"group\":\"leased(g4)\""), std::string::npos) << e2;
  EXPECT_NE(e2.find("\"epoch\":2000"), std::string::npos) << e2;

  // Between epochs: the newest epoch at or before the timestamp answers.
  std::string between = rig.server->handle_request("LPM 10.0.1.77 AT 1999");
  EXPECT_NE(between.find("\"found\":true"), std::string::npos) << between;
  EXPECT_NE(between.find("\"epoch\":1000"), std::string::npos) << between;
  // The same address one epoch later: the record was removed.
  std::string gone = rig.server->handle_request("LPM 10.0.1.77 AT 2000");
  EXPECT_NE(gone.find("\"found\":false"), std::string::npos) << gone;
  EXPECT_NE(gone.find("\"epoch\":2000"), std::string::npos) << gone;

  // After the last epoch: latest answers.
  std::string late = rig.server->handle_request("EXACT 10.0.0.0/24 AT 99999");
  EXPECT_NE(late.find("\"epoch\":3000"), std::string::npos) << late;
}

TEST(CatalogAtVerb, RejectsBadTimestampsAndPreCatalogTimes) {
  CatalogRig rig;
  EXPECT_NE(rig.server->handle_request("EXACT 10.0.0.0/24 AT notatime")
                .find("bad epoch timestamp"),
            std::string::npos);
  EXPECT_NE(rig.server->handle_request("EXACT 10.0.0.0/24 AT 0")
                .find("bad epoch timestamp"),
            std::string::npos);
  // Predates the first epoch: a body-level error, connection semantics
  // identical to any other malformed request.
  EXPECT_NE(rig.server->handle_request("EXACT 10.0.0.0/24 AT 999")
                .find("\"error\""),
            std::string::npos);
  // And the server still answers normally afterwards.
  EXPECT_NE(rig.server->handle_request("EXACT 10.0.0.0/24")
                .find("\"found\":true"),
            std::string::npos);
}

TEST(CatalogAtVerb, SingleSnapshotServerRejectsAt) {
  // A server without a catalog serves its snapshot file as the one epoch
  // 0: it refuses AT with a typed error, HISTORY answers one segment,
  // STATS reports the one-epoch range, and bare RELOAD re-reads the file.
  const std::string path = testing::TempDir() + "/sublet_single_" +
                           std::to_string(::getpid()) + ".snap";
  snapshot::write_snapshot_file(
      path, canonical_inferences(
                {record("10.0.0.0/24", InferenceGroup::kLeasedWithRoot)}));
  auto built = EngineState::load(path);
  ASSERT_TRUE(built) << built.error().to_string();
  QueryServer server(*built, {});
  EXPECT_NE(server.handle_request("EXACT 10.0.0.0/24 AT 1000")
                .find("catalog-mode"),
            std::string::npos);

  const std::string history = server.handle_request("HISTORY 10.0.0.0/24");
  EXPECT_NE(history.find("\"epochs\":1,\"first_epoch\":0,\"last_epoch\":0,"
                         "\"segments\":[{\"from_epoch\":0,\"to_epoch\":0,"
                         "\"found\":true,\"prefix\":\"10.0.0.0/24\","
                         "\"group\":\"leased(g4)\",\"leased\":true}],"
                         "\"transitions\":0"),
            std::string::npos)
      << history;
  const std::string stats = server.handle_request("STATS");
  EXPECT_NE(stats.find("\"epochs\":{\"count\":1,\"first\":0,\"last\":0}"),
            std::string::npos)
      << stats;

  // The file is rewritten in place (write + rename); bare RELOAD serves
  // the new contents as the next generation.
  snapshot::write_snapshot_file(
      path, canonical_inferences(
                {record("10.0.0.0/24", InferenceGroup::kLeasedWithRoot),
                 record("10.0.1.0/24", InferenceGroup::kIspCustomer)}));
  const std::string reload = server.handle_request("RELOAD");
  EXPECT_EQ(reload, "{\"ok\":true,\"generation\":2,\"records\":2,"
                    "\"epochs\":1}");
  EXPECT_NE(server.handle_request("EXACT 10.0.1.0/24").find("\"found\":true"),
            std::string::npos);
  ::unlink(path.c_str());
}

// --- HISTORY -------------------------------------------------------------

TEST(HistoryVerb, ReplaysKnownTransitions) {
  CatalogRig rig;
  std::string flip = rig.server->handle_request("HISTORY 10.0.0.0/24");
  EXPECT_NE(flip.find("\"query\":\"10.0.0.0/24\""), std::string::npos);
  EXPECT_NE(flip.find("\"epochs\":3"), std::string::npos);
  EXPECT_NE(flip.find("\"first_epoch\":1000"), std::string::npos);
  EXPECT_NE(flip.find("\"last_epoch\":3000"), std::string::npos);
  // Two segments: aggregated at epoch 1000, leased for 2000-3000.
  EXPECT_NE(
      flip.find("{\"from_epoch\":1000,\"to_epoch\":1000,\"found\":true,"
                "\"prefix\":\"10.0.0.0/24\",\"group\":\"aggregated-customer\","
                "\"leased\":false}"),
      std::string::npos)
      << flip;
  EXPECT_NE(
      flip.find("{\"from_epoch\":2000,\"to_epoch\":3000,\"found\":true,"
                "\"prefix\":\"10.0.0.0/24\",\"group\":\"leased(g4)\","
                "\"leased\":true}"),
      std::string::npos)
      << flip;
  EXPECT_NE(flip.find("\"transitions\":1"), std::string::npos);

  // A record that disappears: found -> not-found is a transition too.
  std::string gone = rig.server->handle_request("HISTORY 10.0.1.0/24");
  EXPECT_NE(gone.find("{\"from_epoch\":2000,\"to_epoch\":3000,"
                      "\"found\":false}"),
            std::string::npos)
      << gone;
  EXPECT_NE(gone.find("\"transitions\":1"), std::string::npos);

  // A stable record coalesces into one segment, zero transitions.
  std::string stable = rig.server->handle_request("HISTORY 10.0.2.0/24");
  EXPECT_NE(stable.find("{\"from_epoch\":1000,\"to_epoch\":3000,"
                        "\"found\":true"),
            std::string::npos)
      << stable;
  EXPECT_NE(stable.find("\"transitions\":0"), std::string::npos);
}

TEST(HistoryVerb, UnknownPrefixAndMalformedInput) {
  CatalogRig rig;
  std::string miss = rig.server->handle_request("HISTORY 192.0.2.0/24");
  EXPECT_NE(miss.find("{\"from_epoch\":1000,\"to_epoch\":3000,"
                      "\"found\":false}"),
            std::string::npos)
      << miss;
  EXPECT_NE(miss.find("\"transitions\":0"), std::string::npos);

  EXPECT_NE(rig.server->handle_request("HISTORY not-a-prefix")
                .find("\"error\""),
            std::string::npos);
  EXPECT_NE(rig.server->handle_request("HISTORY").find("\"error\""),
            std::string::npos);
  EXPECT_NE(rig.server->handle_request("HISTORY 10.0.0.0/24 extra")
                .find("\"error\""),
            std::string::npos);
}

// --- catalog-mode STATS / RELOAD ----------------------------------------

TEST(CatalogServing, StatsReportsEpochRange) {
  CatalogRig rig;
  std::string stats = rig.server->handle_request("STATS");
  EXPECT_NE(stats.find("\"epochs\":{\"count\":3,\"first\":1000,"
                       "\"last\":3000}"),
            std::string::npos)
      << stats;
}

TEST(CatalogServing, ReloadPicksUpAppendedEpochZeroDowntime) {
  CatalogRig rig;
  rig.append_epoch_4000();
  std::string reload = rig.server->handle_request("RELOAD");
  EXPECT_NE(reload.find("\"ok\":true"), std::string::npos) << reload;
  EXPECT_NE(reload.find("\"epochs\":4"), std::string::npos) << reload;

  // The new epoch serves, and every old epoch still answers.
  std::string fresh = rig.server->handle_request("EXACT 10.0.2.0/24 AT 4000");
  EXPECT_NE(fresh.find("\"group\":\"leased(g3)\""), std::string::npos)
      << fresh;
  std::string old_epoch =
      rig.server->handle_request("EXACT 10.0.0.0/24 AT 1000");
  EXPECT_NE(old_epoch.find("\"group\":\"aggregated-customer\""),
            std::string::npos)
      << old_epoch;
  // Plain queries now answer from the new latest.
  std::string latest = rig.server->handle_request("EXACT 10.0.2.0/24");
  EXPECT_NE(latest.find("\"group\":\"leased(g3)\""), std::string::npos)
      << latest;
}

// --- binary frame epoch field -------------------------------------------

TEST(CatalogBinaryEpoch, RoundTripsAndSurvivesBadEpoch) {
  CatalogRig rig;
  auto port = rig.server->start();
  ASSERT_TRUE(port) << port.error().to_string();
  auto client = QueryClient::connect("127.0.0.1", *port);
  ASSERT_TRUE(client) << client.error().to_string();

  const std::uint32_t addr = (10u << 24);  // inside 10.0.0.0/24
  std::vector<std::uint32_t> addrs = {addr};

  // Epoch 1000: the aggregated-customer classification answers.
  auto at1 = client->request_binary_batch(addrs, 1000);
  ASSERT_TRUE(at1) << at1.error().to_string();
  EXPECT_EQ(at1->status, wire::kOk);
  EXPECT_EQ(at1->epoch, 1000u);
  ASSERT_EQ(at1->results.size(), 1u);
  EXPECT_TRUE(at1->results[0].found);
  EXPECT_FALSE(at1->results[0].leased);

  // Epoch 2500 resolves as-of to 2000: now leased.
  auto at2 = client->request_binary_batch(addrs, 2500);
  ASSERT_TRUE(at2) << at2.error().to_string();
  EXPECT_EQ(at2->status, wire::kOk);
  EXPECT_EQ(at2->epoch, 2500u);
  ASSERT_EQ(at2->results.size(), 1u);
  EXPECT_TRUE(at2->results[0].leased);

  // An unresolvable epoch: kBadEpoch, and the connection survives.
  auto bad = client->request_binary_batch(addrs, 999);
  ASSERT_TRUE(bad) << bad.error().to_string();
  EXPECT_EQ(bad->status, wire::kBadEpoch);
  EXPECT_TRUE(bad->results.empty());

  auto again = client->request_binary_batch(addrs, 0);
  ASSERT_TRUE(again) << again.error().to_string();
  EXPECT_EQ(again->status, wire::kOk);
  EXPECT_EQ(again->epoch, 0u);  // latest echoes the 0 it was asked with
  ASSERT_EQ(again->results.size(), 1u);
  EXPECT_TRUE(again->results[0].leased);

  rig.server->stop();
}

TEST(CatalogBinaryEpoch, SingleSnapshotServerRejectsNonzeroEpoch) {
  auto e1 = canonical_inferences(
      {record("10.0.0.0/24", InferenceGroup::kLeasedWithRoot)});
  auto loaded =
      snapshot::Snapshot::from_bytes(snapshot::encode_snapshot(e1));
  ASSERT_TRUE(loaded);
  auto built = EngineState::adopt(
      std::make_unique<snapshot::Snapshot>(std::move(*loaded)), "<memory>");
  ASSERT_TRUE(built);
  QueryServer server(*built, QueryServer::Options{.port = 0, .shards = 1});
  auto port = server.start();
  ASSERT_TRUE(port);
  auto client = QueryClient::connect("127.0.0.1", *port);
  ASSERT_TRUE(client);

  std::vector<std::uint32_t> addrs = {(10u << 24)};
  auto bad = client->request_binary_batch(addrs, 1000);
  ASSERT_TRUE(bad) << bad.error().to_string();
  EXPECT_EQ(bad->status, wire::kBadEpoch);
  // Epoch 0 still answers on the same connection.
  auto ok = client->request_binary_batch(addrs, 0);
  ASSERT_TRUE(ok) << ok.error().to_string();
  EXPECT_EQ(ok->status, wire::kOk);
  server.stop();
}

// --- one view per request: STATS during RELOADs ---------------------------

/// The first `n` leaves 10.0.<i>.0/24: epoch k of the ServeView catalog
/// holds k records, so a record count names its epoch.
std::vector<LeaseInference> first_leaves(std::size_t n) {
  std::vector<LeaseInference> out;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string prefix = "10.0." + std::to_string(i) + ".0/24";
    out.push_back(record(prefix.c_str(), InferenceGroup::kLeasedNoRoot));
  }
  return canonical_inferences(std::move(out));
}

/// The unsigned integer after the first `key` in `json`, or nullopt.
std::optional<std::uint64_t> number_after(const std::string& json,
                                          const std::string& key) {
  const std::size_t at = json.find(key);
  if (at == std::string::npos) return std::nullopt;
  std::size_t end = at + key.size();
  if (end >= json.size() || json[end] < '0' || json[end] > '9') {
    return std::nullopt;
  }
  std::uint64_t v = 0;
  for (; end < json.size() && json[end] >= '0' && json[end] <= '9'; ++end) {
    v = v * 10 + static_cast<std::uint64_t>(json[end] - '0');
  }
  return v;
}

TEST(ServeView, StatsNeverPairsAnEpochRangeWithAnotherEpochsAggregate) {
  // Epoch 1000 * k holds k records. Four clients send STATS while the
  // writer appends epochs and publishes each with a bare RELOAD; every
  // answer's aggregate must belong to the epoch its range ends at.
  const std::string dir = testing::TempDir() + "/sublet_serve_view_" +
                          std::to_string(::getpid());
  std::string cmd = "rm -rf '" + dir + "'";
  [[maybe_unused]] int rc = std::system(cmd.c_str());
  ASSERT_TRUE(catalog::catalog_init(dir, 1000, first_leaves(1)));
  // Every latest epoch carries a 64 MiB stride table: cache no history.
  auto opened = catalog::Catalog::open(dir, {.lru_capacity = 1});
  ASSERT_TRUE(opened) << opened.error().to_string();
  std::shared_ptr<EpochSource> source = std::move(*opened);
  auto initial = source->epoch_at(0);
  ASSERT_TRUE(initial) << initial.error().to_string();
  QueryServer server(source, std::move(*initial),
                     QueryServer::Options{.port = 0, .shards = 2});
  auto port = server.start();
  ASSERT_TRUE(port) << port.error().to_string();

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> answers{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      auto client = QueryClient::connect("127.0.0.1", *port);
      if (!client) {
        failures.fetch_add(1);
        return;
      }
      while (!stop.load(std::memory_order_relaxed)) {
        auto stats = client->request("STATS");
        auto records =
            stats ? number_after(*stats, "\"snapshot\":{\"records\":")
                  : std::nullopt;
        auto last = stats ? number_after(*stats, "\"last\":") : std::nullopt;
        if (!records || !last || *records * 1000 != *last) {
          ADD_FAILURE() << (stats ? *stats : stats.error().to_string());
          failures.fetch_add(1);
          return;
        }
        answers.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  constexpr std::size_t kEpochs = 16;
  for (std::size_t k = 2; k <= kEpochs; ++k) {
    const auto epoch = static_cast<std::uint32_t>(1000 * k);
    auto appended = catalog::catalog_append(dir, epoch, first_leaves(k));
    ASSERT_TRUE(appended) << appended.error().to_string();
    const std::string reload = server.handle_request("RELOAD");
    EXPECT_NE(reload.find("\"records\":" + std::to_string(k) + ","),
              std::string::npos)
        << reload;
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(answers.load(), 0u);
  server.stop();
  rc = std::system(cmd.c_str());
}

// --- concurrency: three epochs queried during appends --------------------

TEST(CatalogHammer, QueriesThreeEpochsDuringAppendAndReload) {
  CatalogRig rig;
  auto port = rig.server->start();
  ASSERT_TRUE(port) << port.error().to_string();

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  auto worker = [&](std::uint32_t epoch) {
    auto client = QueryClient::connect("127.0.0.1", *port);
    if (!client) {
      failures.fetch_add(1);
      return;
    }
    std::vector<std::uint32_t> addrs = {(10u << 24), (10u << 24) | (2u << 8)};
    while (!stop.load(std::memory_order_relaxed)) {
      auto bin = client->request_binary_batch(addrs, epoch);
      if (!bin || bin->status != wire::kOk) {
        failures.fetch_add(1);
        return;
      }
      std::string at = "EXACT 10.0.0.0/24";
      if (epoch != 0) at += " AT " + std::to_string(epoch);
      auto text = client->request(at);
      if (!text || text->find("\"found\":true") == std::string::npos) {
        failures.fetch_add(1);
        return;
      }
      auto history = client->request("HISTORY 10.0.0.0/24");
      if (!history ||
          history->find("\"transitions\":") == std::string::npos) {
        failures.fetch_add(1);
        return;
      }
    }
  };

  std::vector<std::thread> threads;
  for (std::uint32_t epoch : {0u, 1000u, 2000u}) {
    threads.emplace_back(worker, epoch);
  }
  // Meanwhile: append a new epoch and refresh the serving catalog.
  rig.append_epoch_4000();
  std::string reload = rig.server->handle_request("RELOAD");
  EXPECT_NE(reload.find("\"ok\":true"), std::string::npos) << reload;
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  rig.server->stop();
}

}  // namespace
}  // namespace sublet::serve
