#include "serve/server.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "leasing/dataset.h"
#include "leasing/pipeline.h"
#include "obs/metrics.h"
#include "leasing/report.h"
#include "serve/client.h"
#include "serve/engine_state.h"
#include "simnet/builder.h"
#include "simnet/emit.h"
#include "snapshot/writer.h"

namespace sublet::serve {
namespace {

using leasing::InferenceGroup;
using leasing::LeaseInference;

Prefix P(const char* s) { return *Prefix::parse(s); }

std::vector<LeaseInference> sample() {
  std::vector<LeaseInference> out;
  for (std::uint32_t i = 0; i < 32; ++i) {
    LeaseInference r;
    r.prefix = *Prefix::make(Ipv4Addr((10u << 24) | (i << 8)), 24);
    r.root_prefix = P("10.0.0.0/8");
    r.rir = whois::Rir::kRipe;
    r.group = i % 2 ? InferenceGroup::kLeasedWithRoot
                    : InferenceGroup::kAggregatedCustomer;
    r.holder_org = "ORG-" + std::to_string(i);
    r.holder_asns = {Asn(64512 + i)};
    r.netname = "NET-" + std::to_string(i);
    out.push_back(std::move(r));
  }
  return out;
}

/// Snapshot + engine + server wired together for one test.
struct Rig {
  explicit Rig(const std::vector<LeaseInference>& records,
               QueryServer::Options options = {}) {
    auto loaded =
        snapshot::Snapshot::from_bytes(snapshot::encode_snapshot(records));
    EXPECT_TRUE(loaded) << loaded.error().to_string();
    auto built = EngineState::adopt(
        std::make_unique<snapshot::Snapshot>(std::move(*loaded)),
        "<memory>");
    EXPECT_TRUE(built) << built.error().to_string();
    state = std::move(*built);
    engine = &state->engine();
    server = std::make_unique<QueryServer>(state, options);
  }

  std::shared_ptr<const EngineState> state;
  const QueryEngine* engine = nullptr;
  std::unique_ptr<QueryServer> server;
};

// --- protocol semantics, no sockets involved ---

TEST(ServeProtocol, ExactHitAndMiss) {
  Rig rig(sample());
  std::string hit = rig.server->handle_request("EXACT 10.0.0.0/24");
  EXPECT_NE(hit.find("\"found\":true"), std::string::npos);
  EXPECT_NE(hit.find("\"prefix\":\"10.0.0.0/24\""), std::string::npos);
  EXPECT_EQ(rig.server->handle_request("EXACT 192.0.2.0/24"),
            "{\"found\":false}");
}

TEST(ServeProtocol, LpmAddressMeansSlash32) {
  Rig rig(sample());
  std::string hit = rig.server->handle_request("LPM 10.0.3.200");
  EXPECT_NE(hit.find("\"prefix\":\"10.0.3.0/24\""), std::string::npos);
  EXPECT_EQ(rig.server->handle_request("LPM 8.8.8.8"), "{\"found\":false}");
}

TEST(ServeProtocol, VerbsAreCaseInsensitive) {
  Rig rig(sample());
  EXPECT_NE(rig.server->handle_request("exact 10.0.0.0/24").find(
                "\"found\":true"),
            std::string::npos);
  EXPECT_NE(rig.server->handle_request("lpm 10.0.0.7").find("\"found\":true"),
            std::string::npos);
  EXPECT_NE(rig.server->handle_request("stats").find("\"requests\":"),
            std::string::npos);
}

TEST(ServeProtocol, MalformedRequests) {
  Rig rig(sample());
  EXPECT_NE(rig.server->handle_request("FROB 10.0.0.0/24").find("\"error\""),
            std::string::npos);
  EXPECT_NE(rig.server->handle_request("EXACT not-a-prefix").find("\"error\""),
            std::string::npos);
  EXPECT_NE(rig.server->handle_request("EXACT").find("\"error\""),
            std::string::npos);
  EXPECT_NE(rig.server->handle_request("EXACT 1.2.3.0/24 extra")
                .find("\"error\""),
            std::string::npos);
  EXPECT_EQ(rig.server->stats().malformed, 4u);
}

TEST(ServeProtocol, StatsCountersAdvance) {
  Rig rig(sample());
  rig.server->handle_request("EXACT 10.0.0.0/24");   // hit
  rig.server->handle_request("EXACT 192.0.2.0/24");  // miss
  rig.server->handle_request("BOGUS");               // malformed
  StatsSnapshot stats = rig.server->stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.malformed, 1u);
  std::string json = rig.server->handle_request("STATS");
  EXPECT_NE(json.find("\"requests\":4"), std::string::npos);
  EXPECT_NE(json.find("\"p99_us\":"), std::string::npos);
}

TEST(ServeProtocol, StatsIncludesSnapshotAggregate) {
  Rig rig(sample());
  std::string json = rig.server->handle_request("STATS");
  // Counter fields stay first (scrapers substring-match on them); the
  // snapshot aggregate rides along under its own key.
  EXPECT_NE(json.find("\"requests\":"), std::string::npos);
  EXPECT_NE(json.find("\"snapshot\":{"), std::string::npos);
  EXPECT_NE(json.find("\"lookup_backend\":\"stride24-8\""), std::string::npos);
  // 16 leased(g4) /24s out of the 32-record sample.
  EXPECT_NE(json.find("\"leased\":{\"records\":16,\"addresses\":4096}"),
            std::string::npos)
      << json;
  const std::string stride24 =
      "\"stride24\":" + std::to_string((std::size_t{1} << 24) * 4);
  EXPECT_NE(json.find(stride24), std::string::npos) << json;
}

TEST(ServeProtocol, MlpmBatchedLookups) {
  Rig rig(sample());
  std::string json =
      rig.server->handle_request("MLPM 10.0.3.200 8.8.8.8 10.0.7.1");
  EXPECT_NE(json.find("\"count\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("{\"query\":\"10.0.3.200\",\"found\":true,"
                      "\"prefix\":\"10.0.3.0/24\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"query\":\"8.8.8.8\",\"found\":false}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"prefix\":\"10.0.7.0/24\""), std::string::npos)
      << json;
  StatsSnapshot stats = rig.server->stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ServeProtocol, MlpmMatchesSingleLpmAnswers) {
  Rig rig(sample());
  // The batched path must return byte-identical per-address records to the
  // single-lookup verb.
  std::string batch = rig.server->handle_request("MLPM 10.0.5.99 10.0.6.1");
  for (const char* addr : {"10.0.5.99", "10.0.6.1"}) {
    std::string single = rig.server->handle_request(std::string("LPM ") + addr);
    ASSERT_NE(single.find("\"prefix\":"), std::string::npos);
    const std::string prefix = single.substr(
        single.find("\"prefix\":"),
        single.find(',', single.find("\"prefix\":")) -
            single.find("\"prefix\":"));
    EXPECT_NE(batch.find(prefix), std::string::npos) << addr;
  }
}

TEST(ServeProtocol, MlpmRejectsBadInput) {
  Rig rig(sample());
  EXPECT_NE(rig.server->handle_request("MLPM").find("\"error\""),
            std::string::npos);
  EXPECT_NE(
      rig.server->handle_request("MLPM 10.0.0.1 not-an-address")
          .find("bad address 'not-an-address'"),
      std::string::npos);
  std::string big = "MLPM";
  for (int i = 0; i < 1025; ++i) big += " 10.0.0.1";
  EXPECT_NE(rig.server->handle_request(big).find("batch too large"),
            std::string::npos);
  EXPECT_EQ(rig.server->stats().malformed, 3u);
}

TEST(ServeProtocol, MetricsVerbReturnsPrometheusText) {
  Rig rig(sample());
  rig.server->handle_request("EXACT 10.0.0.0/24");
  std::string text = rig.server->handle_request("METRICS");
  EXPECT_NE(text.find("# TYPE sublet_serve_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("sublet_serve_hits_total 1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE sublet_serve_latency_ns histogram"),
            std::string::npos);
  // Global pipeline/snapshot families are exported too, even when zero.
  EXPECT_NE(text.find("sublet_snapshot_loads_total"), std::string::npos);
  // The body is framed for the newline-delimited wire protocol.
  EXPECT_EQ(text.substr(text.size() - 5), "# EOF");
}

// Differential check for the registry migration: every STATS field must be
// derivable from the server's metrics registry, and the latency quantiles
// must reproduce the historical LatencyHistogram bucket-midpoint estimate
// bit for bit.
TEST(ServeStatsDifferential, StatsJsonDerivesFromRegistry) {
  Rig rig(sample());
  rig.server->handle_request("EXACT 10.0.0.0/24");   // hit
  rig.server->handle_request("LPM 10.0.3.9");        // hit
  rig.server->handle_request("EXACT 192.0.2.0/24");  // miss
  rig.server->handle_request("BOGUS");               // malformed
  StatsSnapshot stats = rig.server->stats();
  std::vector<obs::MetricValue> values = rig.server->registry().snapshot();
  auto counter = [&](std::string_view name) -> std::uint64_t {
    for (const obs::MetricValue& v : values) {
      if (v.name == name) return v.counter_value;
    }
    ADD_FAILURE() << "registry is missing " << name;
    return ~std::uint64_t{0};
  };
  EXPECT_EQ(stats.requests, counter("sublet_serve_requests_total"));
  EXPECT_EQ(stats.hits, counter("sublet_serve_hits_total"));
  EXPECT_EQ(stats.misses, counter("sublet_serve_misses_total"));
  EXPECT_EQ(stats.malformed, counter("sublet_serve_malformed_total"));
  auto closed = [&](const char* reason) {
    return counter(obs::labeled("sublet_serve_conn_closed_total", "reason",
                                reason));
  };
  EXPECT_EQ(stats.shed, closed("shed"));
  EXPECT_EQ(stats.timeouts, closed("idle_timeout") + closed("write_timeout"));
  EXPECT_EQ(stats.accept_retries,
            counter("sublet_serve_accept_retries_total"));
  EXPECT_EQ(stats.reloads, counter("sublet_serve_reloads_total"));
  EXPECT_EQ(stats.reload_failures,
            counter("sublet_serve_reload_failures_total"));

  // The latency family is split per verb (exact/lpm/mlpm/bin/history/at/
  // other); the differential merges every series bucket-by-bucket, exactly
  // as stats() does, and the result must reproduce the old
  // single-histogram math.
  obs::HistogramSnapshot latency;
  std::size_t series = 0;
  for (const obs::MetricValue& v : values) {
    if (v.name.rfind("sublet_serve_latency_ns{", 0) != 0) continue;
    ++series;
    latency.count += v.histogram.count;
    latency.sum += v.histogram.sum;
    for (std::size_t b = 0; b < latency.buckets.size(); ++b) {
      latency.buckets[b] += v.histogram.buckets[b];
    }
  }
  ASSERT_EQ(series, 7u);  // exact, lpm, mlpm, bin, history, at, other
  EXPECT_EQ(latency.count, stats.requests);
  // Independent reimplementation of the pre-registry LatencyHistogram
  // quantile: midpoint of the power-of-two bucket holding the target rank,
  // nanoseconds scaled to microseconds. Exact double equality is the test.
  auto legacy_quantile_us = [&](double q) -> double {
    if (latency.count == 0) return 0.0;
    auto target =
        static_cast<std::uint64_t>(q * static_cast<double>(latency.count));
    if (target >= latency.count) target = latency.count - 1;
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < latency.buckets.size(); ++b) {
      seen += latency.buckets[b];
      if (seen > target) {
        if (b == 0) return 0.0;
        return 1.5 * static_cast<double>(std::uint64_t{1} << (b - 1)) /
               1000.0;
      }
    }
    return 0.0;
  };
  EXPECT_EQ(stats.p50_us, legacy_quantile_us(0.50));
  EXPECT_EQ(stats.p99_us, legacy_quantile_us(0.99));
}

TEST(ServeStatsDifferential, MultipleServersKeepIndependentCounters) {
  Rig a(sample());
  Rig b(sample());
  a.server->handle_request("EXACT 10.0.0.0/24");
  a.server->handle_request("EXACT 10.0.1.0/24");
  b.server->handle_request("EXACT 10.0.0.0/24");
  EXPECT_EQ(a.server->stats().requests, 2u);
  EXPECT_EQ(b.server->stats().requests, 1u);
}

TEST(ServeProtocol, ShutdownRequestsStop) {
  Rig rig(sample());
  EXPECT_FALSE(rig.server->stop_requested());
  std::string ack = rig.server->handle_request("SHUTDOWN");
  EXPECT_NE(ack.find("\"stopping\":true"), std::string::npos);
  EXPECT_TRUE(rig.server->stop_requested());
}

// --- real sockets on the loopback interface ---

TEST(ServeServer, ClientRoundTrip) {
  Rig rig(sample());
  auto port = rig.server->start();
  ASSERT_TRUE(port) << port.error().to_string();
  auto client = QueryClient::connect("127.0.0.1", *port);
  ASSERT_TRUE(client) << client.error().to_string();
  auto response = client->request("EXACT 10.0.5.0/24");
  ASSERT_TRUE(response) << response.error().to_string();
  EXPECT_EQ(*response, rig.engine->record_json(5));
  // Several requests over one connection.
  for (int i = 0; i < 10; ++i) {
    auto again = client->request("LPM 10.0.5.99");
    ASSERT_TRUE(again);
    EXPECT_EQ(*again, rig.engine->record_json(5));
  }
  rig.server->stop();
}

TEST(ServeServer, EphemeralPortsAreIndependent) {
  Rig a(sample());
  Rig b(sample());
  auto port_a = a.server->start();
  auto port_b = b.server->start();
  ASSERT_TRUE(port_a);
  ASSERT_TRUE(port_b);
  EXPECT_NE(*port_a, *port_b);
}

TEST(ServeServer, ShutdownUnblocksWait) {
  Rig rig(sample());
  auto port = rig.server->start();
  ASSERT_TRUE(port);
  std::thread waiter([&] { rig.server->wait(); });
  auto client = QueryClient::connect("127.0.0.1", *port);
  ASSERT_TRUE(client);
  auto ack = client->request("SHUTDOWN");
  ASSERT_TRUE(ack);
  waiter.join();
  EXPECT_TRUE(rig.server->stop_requested());
}

void hammer(std::uint16_t port, const QueryEngine& engine, int rounds,
            std::atomic<int>& failures) {
  auto client = QueryClient::connect("127.0.0.1", port);
  if (!client) {
    failures.fetch_add(1);
    return;
  }
  for (int i = 0; i < rounds; ++i) {
    std::uint32_t leaf = static_cast<std::uint32_t>(i) % 32;
    auto response =
        client->request("EXACT 10.0." + std::to_string(leaf) + ".0/24");
    if (!response || *response != engine.record_json(leaf)) {
      failures.fetch_add(1);
      return;
    }
  }
}

TEST(ServeConcurrency, ManyClientsOneSnapshot) {
  for (unsigned shards : {1u, 8u}) {
    Rig rig(sample(), QueryServer::Options{.port = 0, .shards = shards});
    auto port = rig.server->start();
    ASSERT_TRUE(port) << port.error().to_string();
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 8; ++c) {
      clients.emplace_back(
          [&, c] { hammer(*port, *rig.engine, 50 + c, failures); });
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(failures.load(), 0) << "server shards=" << shards;
    StatsSnapshot stats = rig.server->stats();
    EXPECT_GE(stats.requests, 8u * 50u);
    EXPECT_EQ(stats.requests, stats.hits);
    rig.server->stop();
  }
}

TEST(ServeConcurrency, StopWithClientsConnected) {
  Rig rig(sample(), QueryServer::Options{.port = 0, .shards = 4});
  auto port = rig.server->start();
  ASSERT_TRUE(port);
  std::vector<QueryClient> idle;
  for (int i = 0; i < 4; ++i) {
    auto client = QueryClient::connect("127.0.0.1", *port);
    ASSERT_TRUE(client);
    auto response = client->request("EXACT 10.0.0.0/24");
    ASSERT_TRUE(response);
    idle.push_back(std::move(*client));
  }
  rig.server->stop();  // must unblock the 4 parked handlers and join
}

// --- the paper-pipeline end-to-end: dataset -> classify -> CSV artifact
// -> snapshot -> serve -> every leaf over TCP, byte-equivalent at 1 and 8
// server threads ---

class ServeEndToEnd : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(testing::TempDir() + "/sublet_serve_e2e_" +
                           std::to_string(::getpid()));
    sim::WorldConfig config;
    config.scale = 0.03;
    config.seed = 20240401;
    sim::World world = sim::build_world(config);
    sim::emit_world(world, *dir_);
    leasing::DatasetBundle bundle = leasing::load_dataset(*dir_);
    asgraph::AsGraph graph(&bundle.as_rel, &bundle.as2org);
    leasing::Pipeline pipeline(bundle.rib, graph);
    std::vector<LeaseInference> results = pipeline.classify(bundle.whois);
    // The released artifact is the CSV; the snapshot is built from a fresh
    // parse of it, exactly like `sublet snapshot write`.
    std::ostringstream csv;
    leasing::write_inferences_csv(csv, results);
    std::istringstream in(csv.str());
    auto parsed = leasing::read_inferences_csv(in);
    ASSERT_TRUE(parsed) << parsed.error().to_string();
    artifact_ = new std::vector<LeaseInference>(std::move(*parsed));
    ASSERT_FALSE(artifact_->empty());
  }

  static void TearDownTestSuite() {
    delete artifact_;
    artifact_ = nullptr;
    delete dir_;
    dir_ = nullptr;
  }

  static std::string* dir_;
  static std::vector<LeaseInference>* artifact_;
};

std::string* ServeEndToEnd::dir_ = nullptr;
std::vector<LeaseInference>* ServeEndToEnd::artifact_ = nullptr;

TEST_F(ServeEndToEnd, EveryLeafByteEquivalent) {
  for (unsigned shards : {1u, 8u}) {
    Rig rig(*artifact_, QueryServer::Options{.port = 0, .shards = shards});
    auto port = rig.server->start();
    ASSERT_TRUE(port) << port.error().to_string();
    // Expected responses come straight from the CSV-derived records.
    std::vector<std::string> expected;
    expected.reserve(artifact_->size());
    for (std::uint32_t i = 0; i < artifact_->size(); ++i) {
      expected.push_back(rig.engine->record_json(i));
    }
    const unsigned kClients = 8;
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        auto client = QueryClient::connect("127.0.0.1", *port);
        if (!client) {
          failures.fetch_add(1);
          return;
        }
        for (std::size_t i = c; i < artifact_->size(); i += kClients) {
          auto response = client->request(
              "EXACT " + (*artifact_)[i].prefix.to_string());
          if (!response || *response != expected[i]) {
            failures.fetch_add(1);
            return;
          }
        }
      });
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(failures.load(), 0) << "server shards=" << shards;
    rig.server->stop();
  }
}

}  // namespace
}  // namespace sublet::serve
