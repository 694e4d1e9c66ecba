// Fault-tolerance behavior of the query server (docs/ROBUSTNESS.md):
// idle-deadline disconnects, overload shedding, hot snapshot reload (with
// an 8-client hammer across the swap), HEALTH, transient-accept recovery,
// and the client-side timeout/retry policy.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"
#include "serve/engine_state.h"
#include "serve/server.h"
#include "snapshot/writer.h"
#include "util/faultinject.h"

namespace sublet::serve {
namespace {

using leasing::InferenceGroup;
using leasing::LeaseInference;

Prefix P(const char* s) { return *Prefix::parse(s); }

/// 32 leaves under 10.0.0.0/8; `tag` lands in every netname so tests can
/// tell two snapshot generations apart.
std::vector<LeaseInference> sample(const std::string& tag) {
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
    r.netname = "NET-" + tag + "-" + std::to_string(i);
    out.push_back(std::move(r));
  }
  return out;
}

std::shared_ptr<const EngineState> memory_state(const std::string& tag) {
  auto loaded = snapshot::Snapshot::from_bytes(
      snapshot::encode_snapshot(sample(tag)));
  EXPECT_TRUE(loaded) << loaded.error().to_string();
  auto state = EngineState::adopt(
      std::make_unique<snapshot::Snapshot>(std::move(*loaded)), "<memory>");
  EXPECT_TRUE(state) << state.error().to_string();
  return *state;
}

std::string temp_snapshot(const std::string& name, const std::string& tag) {
  std::string path = testing::TempDir() + "/sublet_robust_" +
                     std::to_string(::getpid()) + "_" + name + ".snap";
  snapshot::write_snapshot_file(path, sample(tag));
  return path;
}

/// Raw TCP connection for protocol-abuse tests (slow loris etc.) that the
/// well-behaved QueryClient can't express.
struct RawConn {
  int fd = -1;

  static std::optional<RawConn> open(std::uint16_t port) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return std::nullopt;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd);
      return std::nullopt;
    }
    return RawConn{fd};
  }

  bool send_all(std::string_view data) {
    while (!data.empty()) {
      ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
      if (n <= 0) return false;
      data.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
  }

  /// Read until EOF or `timeout_ms`; returns everything received.
  std::string read_to_eof(int timeout_ms) {
    std::string out;
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    char chunk[4096];
    for (;;) {
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                      deadline - std::chrono::steady_clock::now())
                      .count();
      if (left <= 0) return out;
      pollfd pfd{fd, POLLIN, 0};
      int rc = ::poll(&pfd, 1, static_cast<int>(left));
      if (rc < 0 && errno == EINTR) continue;
      if (rc <= 0) return out;
      ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return out;  // EOF: the server cut us off
      out.append(chunk, static_cast<std::size_t>(n));
    }
  }

  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }
  RawConn(RawConn&& other) noexcept : fd(other.fd) { other.fd = -1; }
  explicit RawConn(int fd) : fd(fd) {}
  RawConn(const RawConn&) = delete;
};

// --- idle deadline / slow loris ---

TEST(ServeDeadlines, SlowLorisIsCutWhileOthersAreServed) {
  QueryServer server(memory_state("A"),
                     QueryServer::Options{.port = 0,
                                          .shards = 4,
                                          .idle_timeout_ms = 200});
  auto port = server.start();
  ASSERT_TRUE(port) << port.error().to_string();

  // The attacker sends a partial request and then goes quiet.
  auto loris = RawConn::open(*port);
  ASSERT_TRUE(loris);
  ASSERT_TRUE(loris->send_all("EXA"));

  // A well-behaved client keeps getting answers the whole time.
  auto client = QueryClient::connect("127.0.0.1", *port);
  ASSERT_TRUE(client) << client.error().to_string();
  for (int i = 0; i < 5; ++i) {
    auto response = client->request("EXACT 10.0.1.0/24");
    ASSERT_TRUE(response) << response.error().to_string();
    EXPECT_NE(response->find("\"found\":true"), std::string::npos);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }

  // The slow loris got the idle notice and then EOF, well after the 200ms
  // deadline but long before the 60s default would ever fire.
  std::string farewell = loris->read_to_eof(3000);
  EXPECT_NE(farewell.find("idle timeout"), std::string::npos);
  EXPECT_GE(server.stats().timeouts, 1u);
  server.stop();
}

// --- overload shedding ---

TEST(ServeShedding, ConnectionsOverTheCapGetOneLineAndClose) {
  QueryServer server(
      memory_state("A"),
      QueryServer::Options{.port = 0, .shards = 4, .max_conns = 2});
  auto port = server.start();
  ASSERT_TRUE(port) << port.error().to_string();

  // Two connections occupy the cap (a round trip each guarantees they are
  // registered before the third connect reaches the accept loop).
  auto first = QueryClient::connect("127.0.0.1", *port);
  auto second = QueryClient::connect("127.0.0.1", *port);
  ASSERT_TRUE(first);
  ASSERT_TRUE(second);
  ASSERT_TRUE(first->request("EXACT 10.0.0.0/24"));
  ASSERT_TRUE(second->request("EXACT 10.0.0.0/24"));

  auto shed = RawConn::open(*port);
  ASSERT_TRUE(shed);
  std::string line = shed->read_to_eof(3000);
  EXPECT_EQ(line, "{\"error\":\"overloaded\"}\n");
  EXPECT_EQ(server.stats().shed, 1u);

  // Capacity frees up when a held connection goes away.
  first->close();
  bool recovered = false;
  for (int i = 0; i < 200 && !recovered; ++i) {
    auto retry = QueryClient::connect("127.0.0.1", *port);
    if (retry && retry->request("EXACT 10.0.0.0/24")) recovered = true;
    if (!recovered) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(recovered);
  server.stop();
}

// --- hot reload ---

TEST(ServeReload, SwapServesTheNewGeneration) {
  std::string path_a = temp_snapshot("swap_a", "OLD");
  std::string path_b = temp_snapshot("swap_b", "NEW");
  auto state = EngineState::load(path_a);
  ASSERT_TRUE(state) << state.error().to_string();
  QueryServer server(*state, QueryServer::Options{.port = 0, .shards = 2});
  auto port = server.start();
  ASSERT_TRUE(port);
  auto client = QueryClient::connect("127.0.0.1", *port);
  ASSERT_TRUE(client);

  auto before = client->request("EXACT 10.0.3.0/24");
  ASSERT_TRUE(before);
  EXPECT_NE(before->find("NET-OLD-3"), std::string::npos);

  auto ack = client->request("RELOAD " + path_b);
  ASSERT_TRUE(ack);
  EXPECT_NE(ack->find("\"ok\":true"), std::string::npos);
  EXPECT_NE(ack->find("\"generation\":2"), std::string::npos);

  auto after = client->request("EXACT 10.0.3.0/24");
  ASSERT_TRUE(after);
  EXPECT_NE(after->find("NET-NEW-3"), std::string::npos);

  StatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.reloads, 1u);
  EXPECT_EQ(stats.generation, 2u);
  server.stop();
  ::unlink(path_a.c_str());
  ::unlink(path_b.c_str());
}

TEST(ServeReload, BadSnapshotKeepsTheOldEngineServing) {
  std::string path_a = temp_snapshot("bad_a", "OLD");
  std::string corrupt = testing::TempDir() + "/sublet_robust_" +
                        std::to_string(::getpid()) + "_corrupt.snap";
  {
    std::FILE* f = std::fopen(corrupt.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a snapshot", f);
    std::fclose(f);
  }
  auto state = EngineState::load(path_a);
  ASSERT_TRUE(state) << state.error().to_string();
  QueryServer server(*state, QueryServer::Options{});

  std::string missing = server.handle_request("RELOAD /no/such/file.snap");
  EXPECT_NE(missing.find("reload failed"), std::string::npos);
  std::string garbage = server.handle_request("RELOAD " + corrupt);
  EXPECT_NE(garbage.find("reload failed"), std::string::npos);

  // Both rejections left generation 1 serving, records intact.
  StatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.generation, 1u);
  EXPECT_EQ(stats.reloads, 0u);
  EXPECT_EQ(stats.reload_failures, 2u);
  std::string still = server.handle_request("EXACT 10.0.3.0/24");
  EXPECT_NE(still.find("NET-OLD-3"), std::string::npos);
  ::unlink(path_a.c_str());
  ::unlink(corrupt.c_str());
}

// The acceptance scenario: 8 clients hammering EXACT queries while the
// engine is swapped back and forth — zero failed queries, zero dropped
// requests, every response a valid generation-A or generation-B answer.
TEST(ServeReload, HammerDuringSwapZeroFailures) {
  std::string path_a = temp_snapshot("hammer_a", "GA");
  std::string path_b = temp_snapshot("hammer_b", "GB");
  auto state = EngineState::load(path_a);
  ASSERT_TRUE(state) << state.error().to_string();
  // Connections are thread-per-connection: 8 hammers + 1 control client
  // need headroom, hence 12 handler threads.
  QueryServer server(*state,
                     QueryServer::Options{.port = 0, .shards = 12});
  auto port = server.start();
  ASSERT_TRUE(port);

  constexpr int kClients = 8;
  constexpr int kRounds = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> hammers;
  for (int c = 0; c < kClients; ++c) {
    hammers.emplace_back([&, c] {
      auto client = QueryClient::connect("127.0.0.1", *port);
      if (!client) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kRounds; ++i) {
        std::uint32_t leaf = static_cast<std::uint32_t>(i + c) % 32;
        auto response = client->request("EXACT 10.0." +
                                        std::to_string(leaf) + ".0/24");
        // Either generation is a correct answer; anything else (error,
        // miss, cut connection) is a failure.
        bool ok = response &&
                  (response->find("NET-GA-" + std::to_string(leaf)) !=
                       std::string::npos ||
                   response->find("NET-GB-" + std::to_string(leaf)) !=
                       std::string::npos);
        if (!ok) failures.fetch_add(1);
      }
    });
  }

  auto control = QueryClient::connect("127.0.0.1", *port);
  ASSERT_TRUE(control);
  std::uint64_t swaps = 0;
  for (int r = 0; r < 10; ++r) {
    auto ack =
        control->request("RELOAD " + (r % 2 == 0 ? path_b : path_a));
    ASSERT_TRUE(ack) << ack.error().to_string();
    EXPECT_NE(ack->find("\"ok\":true"), std::string::npos);
    ++swaps;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (auto& t : hammers) t.join();

  EXPECT_EQ(failures.load(), 0);
  StatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.reloads, swaps);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kClients) * kRounds);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.generation, 1u + swaps);
  server.stop();
  ::unlink(path_a.c_str());
  ::unlink(path_b.c_str());
}

// --- HEALTH ---

TEST(ServeHealth, ReportsGenerationUptimeAndDrainState) {
  QueryServer server(memory_state("A"), QueryServer::Options{});
  std::string health = server.handle_request("HEALTH");
  EXPECT_NE(health.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(health.find("\"generation\":1"), std::string::npos);
  EXPECT_NE(health.find("\"snapshot\":\"<memory>\""), std::string::npos);
  EXPECT_NE(health.find("\"records\":32"), std::string::npos);
  EXPECT_NE(health.find("\"draining\":false"), std::string::npos);

  server.handle_request("SHUTDOWN");
  health = server.handle_request("HEALTH");
  EXPECT_NE(health.find("\"draining\":true"), std::string::npos);
}

// --- accept-loop resilience (regression: any non-EINTR error used to be
// fatal and silently killed the accept thread) ---

TEST(ServeAccept, RecoversFromTransientAcceptErrors) {
  if (!fault::enabled()) GTEST_SKIP() << "fault injection compiled out";
  QueryServer server(memory_state("A"),
                     QueryServer::Options{.port = 0, .shards = 2});
  auto port = server.start();
  ASSERT_TRUE(port);
  std::uint64_t trips = 0;
  {
    fault::ScopedFault emfile("serve.accept", EMFILE, /*skip=*/0,
                              /*times=*/3);
    // The pending connect sits in the backlog while the first three
    // accept() attempts fail; the loop backs off and recovers.
    auto client = QueryClient::connect("127.0.0.1", *port);
    ASSERT_TRUE(client) << client.error().to_string();
    auto response = client->request("EXACT 10.0.0.0/24");
    ASSERT_TRUE(response) << response.error().to_string();
    EXPECT_NE(response->find("\"found\":true"), std::string::npos);
    trips = emfile.trips();
  }
  EXPECT_EQ(trips, 3u);
  EXPECT_EQ(server.stats().accept_retries, 3u);
  server.stop();
}

// --- client-side deadlines and retry ---

TEST(ServeClient, RequestTimesOutOnStalledServer) {
  // A listener that never reads and never replies: the backlog completes
  // the TCP handshake, then nothing.
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 8), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);
  std::uint16_t port = ntohs(addr.sin_port);

  auto client = QueryClient::connect(
      "127.0.0.1", port,
      QueryClient::Timeouts{.connect_ms = 2000, .io_ms = 150});
  ASSERT_TRUE(client) << client.error().to_string();
  auto start = std::chrono::steady_clock::now();
  auto response = client->request("EXACT 10.0.0.0/24");
  auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  ASSERT_FALSE(response);
  EXPECT_TRUE(is_timeout(response.error()))
      << response.error().to_string();
  EXPECT_GE(waited, 100);   // the deadline, minus scheduling slop
  EXPECT_LT(waited, 5000);  // but nowhere near "forever"
  ::close(listener);
}

TEST(ServeClient, RetryPolicySurvivesTransientConnectFailures) {
  if (!fault::enabled()) GTEST_SKIP() << "fault injection compiled out";
  QueryServer server(memory_state("A"),
                     QueryServer::Options{.port = 0, .shards = 2});
  auto port = server.start();
  ASSERT_TRUE(port);
  std::uint64_t trips = 0;
  {
    fault::ScopedFault refused("client.connect", ECONNREFUSED, /*skip=*/0,
                               /*times=*/2);
    QueryClient::RetryPolicy policy;
    policy.attempts = 3;
    policy.base_backoff_ms = 1;
    auto response = QueryClient::request_with_retry(
        "127.0.0.1", *port, "EXACT 10.0.0.0/24", policy);
    ASSERT_TRUE(response) << response.error().to_string();
    EXPECT_NE(response->find("\"found\":true"), std::string::npos);
    trips = refused.trips();
  }
  EXPECT_EQ(trips, 2u);

  // With only two attempts both are eaten by the fault and the typed
  // error from the last attempt comes back.
  {
    fault::ScopedFault refused("client.connect", ECONNREFUSED);
    QueryClient::RetryPolicy policy;
    policy.attempts = 2;
    policy.base_backoff_ms = 1;
    auto response = QueryClient::request_with_retry(
        "127.0.0.1", *port, "EXACT 10.0.0.0/24", policy);
    ASSERT_FALSE(response);
    EXPECT_EQ(response.error().code, ECONNREFUSED);
  }
  server.stop();
}

TEST(ServeClient, MultilineRetryHelperSurvivesTransientConnectFailures) {
  if (!fault::enabled()) GTEST_SKIP() << "fault injection compiled out";
  QueryServer server(memory_state("A"),
                     QueryServer::Options{.port = 0, .shards = 2});
  auto port = server.start();
  ASSERT_TRUE(port);
  {
    fault::ScopedFault refused("client.connect", ECONNREFUSED, /*skip=*/0,
                               /*times=*/2);
    QueryClient::RetryPolicy policy;
    policy.attempts = 3;
    policy.base_backoff_ms = 1;
    auto body = QueryClient::request_multiline_with_retry(
        "127.0.0.1", *port, "METRICS", "# EOF", policy);
    ASSERT_TRUE(body) << body.error().to_string();
    EXPECT_NE(body->find("# EOF"), std::string::npos);
  }
  server.stop();
}

TEST(ServeClient, BinaryBatchRetryHelperSurvivesTransientConnectFailures) {
  if (!fault::enabled()) GTEST_SKIP() << "fault injection compiled out";
  QueryServer server(memory_state("A"),
                     QueryServer::Options{.port = 0, .shards = 2});
  auto port = server.start();
  ASSERT_TRUE(port);
  const std::vector<std::uint32_t> addrs = {(10u << 24) | 1u};
  {
    fault::ScopedFault refused("client.connect", ECONNREFUSED, /*skip=*/0,
                               /*times=*/2);
    QueryClient::RetryPolicy policy;
    policy.attempts = 3;
    policy.base_backoff_ms = 1;
    auto response = QueryClient::request_binary_batch_with_retry(
        "127.0.0.1", *port, addrs, /*epoch=*/0, policy);
    ASSERT_TRUE(response) << response.error().to_string();
    EXPECT_EQ(response->status, 0);
    ASSERT_EQ(response->results.size(), 1u);
    EXPECT_TRUE(response->results[0].found);
  }
  server.stop();
}

}  // namespace
}  // namespace sublet::serve
