// Event-loop core behavior of the epoll rewrite (docs/SERVING.md):
// idle-connection scaling (the 10k soak with a per-connection memory
// budget), condition-variable drain latency, torn/partial reads on both
// protocols, binary-batch equivalence with the text verbs, pipelining,
// and hot reload under pipelined binary load.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/engine_state.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "snapshot/writer.h"

namespace sublet::serve {
namespace {

using leasing::InferenceGroup;
using leasing::LeaseInference;

Prefix P(const char* s) { return *Prefix::parse(s); }

std::vector<LeaseInference> sample(const std::string& tag = "A") {
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

std::shared_ptr<const EngineState> memory_state(const std::string& tag = "A") {
  auto loaded = snapshot::Snapshot::from_bytes(
      snapshot::encode_snapshot(sample(tag)));
  EXPECT_TRUE(loaded) << loaded.error().to_string();
  auto state = EngineState::adopt(
      std::make_unique<snapshot::Snapshot>(std::move(*loaded)), "<memory>");
  EXPECT_TRUE(state) << state.error().to_string();
  return *state;
}

std::string temp_snapshot(const std::string& name, const std::string& tag) {
  std::string path = testing::TempDir() + "/sublet_event_" +
                     std::to_string(::getpid()) + "_" + name + ".snap";
  snapshot::write_snapshot_file(path, sample(tag));
  return path;
}

/// Raw TCP connection for byte-level protocol tests.
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

  /// Read exactly `want` bytes or fail at `timeout_ms`.
  bool read_exact(std::string& out, std::size_t want, int timeout_ms) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    char chunk[4096];
    while (out.size() < want) {
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                      deadline - std::chrono::steady_clock::now())
                      .count();
      if (left <= 0) return false;
      pollfd pfd{fd, POLLIN, 0};
      int rc = ::poll(&pfd, 1, static_cast<int>(left));
      if (rc < 0 && errno == EINTR) continue;
      if (rc <= 0) return false;
      ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      out.append(chunk, static_cast<std::size_t>(n));
    }
    return true;
  }

  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }
  RawConn(RawConn&& other) noexcept : fd(other.fd) { other.fd = -1; }
  explicit RawConn(int fd) : fd(fd) {}
  RawConn(const RawConn&) = delete;
};

// --- the 10k-idle-connection soak ---

/// Per-connection memory budget: Conn object + (empty) buffers + the
/// intrusive timer links. Idle connections never grow their buffers — the
/// read path lands in a shard-owned scratch chunk — so the real footprint
/// is just the Conn struct; 1 KiB leaves generous headroom.
constexpr std::size_t kPerConnBudgetBytes = 1024;

/// The client side of the soak, run in a forked child so the 10k client
/// fds and the 10k server fds each fit under a 20k RLIMIT_NOFILE. The
/// child is forked before the server spawns any thread, so it is
/// single-threaded and free to allocate. Protocol over the socketpair:
/// parent sends the port (2 bytes); the child connects in chunks of
/// `kChunk`, sending 'c' after each chunk and waiting for the parent's
/// 'a' ack (credit-based throttling keeps the accept backlog from
/// overflowing); 'd' when done or 'f' on failure; then it parks until the
/// parent's close byte arrives.
constexpr std::size_t kSoakConns = 10000;
constexpr std::size_t kSoakChunk = 100;

[[noreturn]] void soak_client_child(int control) {
  auto die = [&] {
    char f = 'f';
    [[maybe_unused]] ssize_t rc = ::write(control, &f, 1);
    ::_exit(1);
  };
  unsigned char port_bytes[2];
  std::size_t got = 0;
  while (got < 2) {
    ssize_t n = ::read(control, port_bytes + got, 2 - got);
    if (n <= 0) die();
    got += static_cast<std::size_t>(n);
  }
  const std::uint16_t port =
      static_cast<std::uint16_t>(port_bytes[0] | (port_bytes[1] << 8));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::vector<int> fds;
  fds.reserve(kSoakConns);
  for (std::size_t i = 0; i < kSoakConns; ++i) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) die();
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      die();
    }
    fds.push_back(fd);
    if (fds.size() % kSoakChunk == 0) {
      char c = 'c';
      if (::write(control, &c, 1) != 1) die();
      char ack = 0;
      if (::read(control, &ack, 1) != 1 || ack != 'a') die();
    }
  }
  char d = 'd';
  if (::write(control, &d, 1) != 1) die();
  char parked = 0;
  [[maybe_unused]] ssize_t rc = ::read(control, &parked, 1);
  for (int fd : fds) ::close(fd);
  ::_exit(0);
}

TEST(ServeSoak, TenThousandIdleConnectionsStayCheap) {
  // Each side of the soak needs ~10k fds; raise the soft limit to the
  // hard cap and skip only if even one side cannot fit.
  rlimit limit{};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &limit), 0);
  if (limit.rlim_cur < limit.rlim_max) {
    rlimit raised = limit;
    raised.rlim_cur = limit.rlim_max;
    ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &raised), 0);
    limit = raised;
  }
  if (limit.rlim_cur < kSoakConns + 300) {
    GTEST_SKIP() << "RLIMIT_NOFILE " << limit.rlim_cur
                 << " cannot hold the server side of a " << kSoakConns
                 << "-connection soak";
  }

  int control[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, control), 0);
  // Fork before the server exists: the child must be single-threaded.
  pid_t child = ::fork();
  ASSERT_GE(child, 0) << strerror(errno);
  if (child == 0) {
    ::close(control[0]);
    soak_client_child(control[1]);
  }
  ::close(control[1]);

  QueryServer server(memory_state(),
                     QueryServer::Options{.port = 0,
                                          .shards = 2,
                                          .max_conns = 0,
                                          .idle_timeout_ms = 600000});
  auto port = server.start();
  ASSERT_TRUE(port) << port.error().to_string();
  unsigned char port_bytes[2] = {
      static_cast<unsigned char>(*port & 0xFF),
      static_cast<unsigned char>((*port >> 8) & 0xFF)};
  ASSERT_EQ(::write(control[0], port_bytes, 2), 2);

  // Ack each chunk once the shards have adopted it, so the child never
  // outruns the 128-entry listen backlog.
  auto read_byte = [&](int timeout_ms) -> char {
    pollfd pfd{control[0], POLLIN, 0};
    for (;;) {
      int rc = ::poll(&pfd, 1, timeout_ms);
      if (rc < 0 && errno == EINTR) continue;
      if (rc <= 0) return 0;
      char byte = 0;
      if (::read(control[0], &byte, 1) != 1) return 0;
      return byte;
    }
  };
  std::size_t acked = 0;
  for (;;) {
    char byte = read_byte(60000);
    ASSERT_NE(byte, 0) << "soak child went quiet after " << acked
                       << " connections";
    ASSERT_NE(byte, 'f') << "soak child failed after " << acked
                         << " connections";
    if (byte == 'd') break;
    ASSERT_EQ(byte, 'c');
    acked += kSoakChunk;
    for (int spins = 0;
         server.active_connections() < acked && spins < 60000; ++spins) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GE(server.active_connections(), acked);
    char ack = 'a';
    ASSERT_EQ(::write(control[0], &ack, 1), 1);
  }
  ASSERT_EQ(server.active_connections(), kSoakConns);

  // The budget: total per-connection state divided by connection count.
  const std::size_t total = server.connection_memory_bytes();
  EXPECT_LE(total / kSoakConns, kPerConnBudgetBytes)
      << "total=" << total << " bytes across " << kSoakConns
      << " connections";

  // The server still answers while holding all 10k, and none of the idle
  // connections tripped a spurious deadline.
  auto client = QueryClient::connect("127.0.0.1", *port);
  ASSERT_TRUE(client) << client.error().to_string();
  auto response = client->request("EXACT 10.0.3.0/24");
  ASSERT_TRUE(response) << response.error().to_string();
  EXPECT_NE(response->find("\"found\":true"), std::string::npos);
  EXPECT_EQ(server.stats().timeouts, 0u);

  // Release the child; its 10k closes drain through the shards.
  char done = 'x';
  ASSERT_EQ(::write(control[0], &done, 1), 1);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ::close(control[0]);
  server.stop();
  EXPECT_EQ(server.stats().timeouts, 0u);
}

// --- condition-variable drain (no sleep-quantum polling) ---

TEST(ServeDrain, StopReturnsAsSoonAsConnectionsDrain) {
  QueryServer server(memory_state(),
                     QueryServer::Options{.port = 0,
                                          .shards = 2,
                                          .drain_timeout_ms = 30000});
  auto port = server.start();
  ASSERT_TRUE(port);
  std::vector<QueryClient> idle;
  for (int i = 0; i < 8; ++i) {
    auto client = QueryClient::connect("127.0.0.1", *port);
    ASSERT_TRUE(client);
    auto response = client->request("EXACT 10.0.0.0/24");
    ASSERT_TRUE(response);
    idle.push_back(std::move(*client));
  }
  // All 8 are idle with nothing buffered, so the drain closes them
  // immediately and the condition variable fires the moment the live count
  // hits zero — nowhere near the 30s drain budget.
  auto start = std::chrono::steady_clock::now();
  server.stop();
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  EXPECT_EQ(server.active_connections(), 0u);
  EXPECT_LT(elapsed, 5000) << "drain should signal, not poll out the budget";
}

// --- torn reads: both protocols must reassemble one-byte-at-a-time input ---

TEST(ServeTornReads, TextRequestOneByteAtATime) {
  QueryServer server(memory_state(),
                     QueryServer::Options{.port = 0, .shards = 1});
  auto port = server.start();
  ASSERT_TRUE(port);
  auto conn = RawConn::open(*port);
  ASSERT_TRUE(conn);
  const std::string request = "EXACT 10.0.3.0/24\n";
  for (char c : request) {
    ASSERT_TRUE(conn->send_all(std::string_view(&c, 1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::string response;
  ASSERT_TRUE(conn->read_exact(response, 1, 5000));
  // Read the rest of the line.
  while (response.back() != '\n') {
    ASSERT_TRUE(conn->read_exact(response, response.size() + 1, 5000));
  }
  EXPECT_NE(response.find("\"prefix\":\"10.0.3.0/24\""), std::string::npos);
  EXPECT_NE(response.find("NET-A-3"), std::string::npos);
  server.stop();
}

TEST(ServeTornReads, BinaryFrameOneByteAtATime) {
  QueryServer server(memory_state(),
                     QueryServer::Options{.port = 0, .shards = 1});
  auto port = server.start();
  ASSERT_TRUE(port);
  auto conn = RawConn::open(*port);
  ASSERT_TRUE(conn);

  std::string frame;
  wire::FrameHeader header;
  header.opcode = wire::kOpLpmBatch;
  header.request_id = 77;
  header.payload_len = 8;
  wire::append_header(frame, header);
  char addr[4];
  wire::store_u32le(addr, (10u << 24) | (3u << 8) | 200u);  // 10.0.3.200
  frame.append(addr, 4);
  wire::store_u32le(addr, (8u << 24) | (8u << 16) | (8u << 8) | 8u);
  frame.append(addr, 4);

  for (char c : frame) {
    ASSERT_TRUE(conn->send_all(std::string_view(&c, 1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::string response;
  ASSERT_TRUE(conn->read_exact(
      response, wire::kHeaderSize + 2 * wire::kResultSize, 5000));
  wire::FrameHeader echoed;
  ASSERT_TRUE(wire::decode_header(response.data(), echoed));
  EXPECT_EQ(echoed.request_id, 77u);
  EXPECT_EQ(echoed.status, wire::kOk);
  ASSERT_EQ(echoed.payload_len, 2 * wire::kResultSize);
  wire::Result hit =
      wire::decode_result(response.data() + wire::kHeaderSize);
  EXPECT_EQ(hit.prefix_addr, (10u << 24) | (3u << 8));
  EXPECT_EQ(hit.prefix_len, 24);
  wire::Result miss = wire::decode_result(response.data() +
                                          wire::kHeaderSize +
                                          wire::kResultSize);
  EXPECT_EQ(miss.prefix_len, wire::kMissLen);
  server.stop();
}

// --- binary batches: equivalence with the text verbs, and pipelining ---

TEST(ServeBinary, BatchMatchesTextLpmAnswers) {
  auto state = memory_state();
  const QueryEngine& engine = state->engine();
  QueryServer server(state, QueryServer::Options{.port = 0, .shards = 2});
  auto port = server.start();
  ASSERT_TRUE(port);
  auto client = QueryClient::connect("127.0.0.1", *port);
  ASSERT_TRUE(client);

  std::vector<std::uint32_t> addrs;
  for (std::uint32_t i = 0; i < 32; ++i) {
    addrs.push_back((10u << 24) | (i << 8) | 200u);  // all hits
  }
  addrs.push_back((8u << 24) | (8u << 16) | (8u << 8) | 8u);  // miss
  auto response = client->request_binary_batch(addrs);
  ASSERT_TRUE(response) << response.error().to_string();
  EXPECT_EQ(response->status, wire::kOk);
  ASSERT_EQ(response->results.size(), addrs.size());
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    auto expected =
        engine.longest_match(*Prefix::make(Ipv4Addr(addrs[i]), 32));
    const BinResult& got = response->results[i];
    ASSERT_EQ(got.found, expected.has_value()) << "addr #" << i;
    if (!expected) continue;
    EXPECT_EQ(got.prefix_addr, expected->first.network().value());
    EXPECT_EQ(got.prefix_len, expected->first.length());
    QueryEngine::Brief brief = engine.brief(expected->second);
    EXPECT_EQ(got.group, brief.group);
    EXPECT_EQ(got.leased, brief.leased);
  }
  // Counters: one request, one frame, N lookups, 32 hits + 1 miss.
  StatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.hits, 32u);
  EXPECT_EQ(stats.misses, 1u);
  server.stop();
}

TEST(ServeBinary, PipelinedFramesComeBackInBatchOrder) {
  QueryServer server(memory_state(),
                     QueryServer::Options{.port = 0, .shards = 1});
  auto port = server.start();
  ASSERT_TRUE(port);
  auto client = QueryClient::connect("127.0.0.1", *port);
  ASSERT_TRUE(client);

  constexpr std::size_t kDepth = 16;
  std::vector<std::vector<std::uint32_t>> batches(kDepth);
  for (std::size_t k = 0; k < kDepth; ++k) {
    for (std::uint32_t i = 0; i < 8; ++i) {
      std::uint32_t leaf = (static_cast<std::uint32_t>(k) + i) % 32;
      batches[k].push_back((10u << 24) | (leaf << 8) | 7u);
    }
  }
  auto responses = client->pipeline_binary(batches);
  ASSERT_TRUE(responses) << responses.error().to_string();
  ASSERT_EQ(responses->size(), kDepth);
  for (std::size_t k = 0; k < kDepth; ++k) {
    const BinResponse& r = (*responses)[k];
    EXPECT_EQ(r.status, wire::kOk);
    ASSERT_EQ(r.results.size(), batches[k].size());
    for (std::size_t i = 0; i < r.results.size(); ++i) {
      std::uint32_t leaf = (batches[k][i] >> 8) & 0xFF;
      ASSERT_TRUE(r.results[i].found) << "batch " << k << " entry " << i;
      EXPECT_EQ(r.results[i].prefix_addr, (10u << 24) | (leaf << 8));
    }
  }
  server.stop();
}

// --- RELOAD + drain under pipelined binary load: zero failed in-flight
// requests across 10 generation swaps ---

TEST(ServeReloadBinary, PipelinedHammerAcrossSwapsZeroFailures) {
  std::string path_a = temp_snapshot("bin_a", "GA");
  std::string path_b = temp_snapshot("bin_b", "GB");
  auto state = EngineState::load(path_a);
  ASSERT_TRUE(state) << state.error().to_string();
  QueryServer server(*state, QueryServer::Options{.port = 0, .shards = 2});
  auto port = server.start();
  ASSERT_TRUE(port);

  constexpr int kClients = 4;
  constexpr int kRounds = 40;
  constexpr std::size_t kDepth = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> hammers;
  for (int c = 0; c < kClients; ++c) {
    hammers.emplace_back([&, c] {
      auto client = QueryClient::connect("127.0.0.1", *port);
      if (!client) {
        failures.fetch_add(1);
        return;
      }
      std::vector<std::vector<std::uint32_t>> batches(kDepth);
      for (int i = 0; i < kRounds; ++i) {
        for (std::size_t k = 0; k < kDepth; ++k) {
          batches[k].clear();
          for (std::uint32_t j = 0; j < 16; ++j) {
            std::uint32_t leaf =
                (static_cast<std::uint32_t>(i + c) + j) % 32;
            batches[k].push_back((10u << 24) | (leaf << 8) | 9u);
          }
        }
        auto responses = client->pipeline_binary(batches);
        if (!responses || responses->size() != kDepth) {
          failures.fetch_add(1);
          continue;
        }
        // Both generations share the prefix plan, so every answer must be
        // a hit on the right leaf regardless of which engine served it.
        for (std::size_t k = 0; k < kDepth; ++k) {
          const BinResponse& r = (*responses)[k];
          if (r.status != wire::kOk ||
              r.results.size() != batches[k].size()) {
            failures.fetch_add(1);
            continue;
          }
          for (std::size_t j = 0; j < r.results.size(); ++j) {
            std::uint32_t want = batches[k][j] & 0xFFFFFF00u;
            if (!r.results[j].found ||
                r.results[j].prefix_addr != want ||
                r.results[j].prefix_len != 24) {
              failures.fetch_add(1);
            }
          }
        }
      }
    });
  }

  std::uint64_t swaps = 0;
  for (int r = 0; r < 10; ++r) {
    auto generation = server.reload(r % 2 == 0 ? path_b : path_a);
    ASSERT_TRUE(generation) << generation.error().to_string();
    ++swaps;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (auto& t : hammers) t.join();

  EXPECT_EQ(failures.load(), 0);
  StatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.reloads, swaps);
  EXPECT_EQ(stats.generation, 1u + swaps);
  server.stop();
  ::unlink(path_a.c_str());
  ::unlink(path_b.c_str());
}

// --- fairness: a pipeline flood cannot starve its shard ---

std::uint64_t scrape_counter(const std::string& metrics,
                             const std::string& family) {
  const std::string needle = "\n" + family + " ";
  const auto pos = metrics.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtoull(metrics.c_str() + pos + needle.size(), nullptr, 10);
}

TEST(ServeFairness, PipelineFloodCannotStarveTheShard) {
  QueryServer server(memory_state(),
                     QueryServer::Options{.port = 0,
                                          .shards = 1,
                                          .max_outbuf_bytes = 64u << 20});
  auto started = server.start();
  ASSERT_TRUE(started) << started.error().to_string();
  const std::uint16_t port = *started;

  // One connection bursts far more pipelined requests than the per-pass
  // budget without reading a byte back. A 64KB read chunk holds ~10900
  // of these lines, so at least one process() pass sees a backlog far
  // past the budget no matter how TCP segments the burst.
  constexpr std::size_t kFlood = 20000;
  auto flood = RawConn::open(port);
  ASSERT_TRUE(flood.has_value());
  std::string burst;
  burst.reserve(kFlood * 6);
  for (std::size_t i = 0; i < kFlood; ++i) burst += "STATS\n";
  ASSERT_TRUE(flood->send_all(burst));

  // A second connection on the same (only) shard is answered while the
  // flood drains: without the budget the shard would synchronously
  // generate the whole flood's responses before looking at anyone else.
  auto client = QueryClient::connect("127.0.0.1", port);
  ASSERT_TRUE(client) << client.error().to_string();
  auto resp = client->request("EXACT 10.0.0.0/24");
  ASSERT_TRUE(resp) << resp.error().to_string();
  EXPECT_NE(resp->find("\"found\":true"), std::string::npos) << *resp;

  // Every flooded response still arrives, nothing dropped at the yield
  // boundaries. STATS responses are single-line JSON, so counting
  // newlines counts responses.
  std::size_t lines = 0;
  char buf[65536];
  while (lines < kFlood) {
    pollfd pfd{flood->fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 10000);
    if (rc < 0 && errno == EINTR) continue;
    ASSERT_GT(rc, 0) << "flood drain stalled at " << lines << " responses";
    const ssize_t n = ::recv(flood->fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "flood connection died at " << lines << " responses";
    for (ssize_t i = 0; i < n; ++i) lines += buf[i] == '\n';
  }
  EXPECT_EQ(lines, kFlood);

  auto metrics = client->request_multiline("METRICS");
  ASSERT_TRUE(metrics) << metrics.error().to_string();
  EXPECT_GE(scrape_counter(*metrics, "sublet_serve_fair_yields_total"), 1u);
  server.stop();
}

// --- backpressure: a reader that never reads is cut at the output cap ---

TEST(ServeBackpressure, SlowReaderIsClosedAtTheOutputCap) {
  QueryServer server(memory_state(),
                     QueryServer::Options{.port = 0,
                                          .shards = 1,
                                          .max_outbuf_bytes = 64u << 10});
  auto started = server.start();
  ASSERT_TRUE(started) << started.error().to_string();

  // ~20 MB of pipelined STATS answers (about 1 KB each), far past both the
  // cap and what the kernel socket buffers hold, and never a byte read
  // back. The send may fail part-way: the server cuts the connection.
  auto reader = RawConn::open(*started);
  ASSERT_TRUE(reader.has_value());
  std::string burst;
  for (int i = 0; i < 20000; ++i) burst += "STATS\n";
  reader->send_all(burst);

  const std::string overflow = obs::labeled("sublet_serve_conn_closed_total",
                                            "reason", "outbuf_overflow");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (scrape_counter(server.metrics_text(), overflow) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(scrape_counter(server.metrics_text(), overflow), 1u);

  // The connection is gone: what the kernel had buffered drains, then
  // EOF or a reset — never a stall.
  char buf[65536];
  ssize_t n = 1;
  while (n > 0) {
    pollfd pfd{reader->fd, POLLIN, 0};
    ASSERT_GT(::poll(&pfd, 1, 10000), 0) << "connection was not closed";
    n = ::recv(reader->fd, buf, sizeof(buf), 0);
  }
  server.stop();
}

}  // namespace
}  // namespace sublet::serve
