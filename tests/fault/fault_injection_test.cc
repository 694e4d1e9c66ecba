// Fault-injected end-to-end checks (label `fault`, run under the sanitizer
// presets): snapshot load/store failures and server-side socket faults,
// all driven through the util/faultinject harness.
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <memory>
#include <string>
#include <vector>

#include "serve/client.h"
#include "serve/engine_state.h"
#include "serve/server.h"
#include "snapshot/snapshot.h"
#include "snapshot/writer.h"
#include "util/faultinject.h"

namespace sublet {
namespace {

using leasing::InferenceGroup;
using leasing::LeaseInference;

std::vector<LeaseInference> sample(const std::string& tag) {
  std::vector<LeaseInference> out;
  for (std::uint32_t i = 0; i < 8; ++i) {
    LeaseInference r;
    r.prefix = *Prefix::make(Ipv4Addr((10u << 24) | (i << 8)), 24);
    r.root_prefix = *Prefix::parse("10.0.0.0/8");
    r.rir = whois::Rir::kRipe;
    r.group = InferenceGroup::kLeasedWithRoot;
    r.holder_org = "ORG-" + std::to_string(i);
    r.holder_asns = {Asn(64512 + i)};
    r.netname = "NET-" + tag + "-" + std::to_string(i);
    out.push_back(std::move(r));
  }
  return out;
}

class FaultE2E : public testing::Test {
 protected:
  void SetUp() override {
    if (!fault::enabled()) GTEST_SKIP() << "fault injection compiled out";
    fault::disarm_all();
    path_ = testing::TempDir() + "/sublet_fault_" +
            std::to_string(::getpid()) + "_" +
            testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".snap";
    snapshot::write_snapshot_file(path_, sample("SEED"));
  }
  void TearDown() override {
    fault::disarm_all();
    ::unlink(path_.c_str());
    ::unlink((path_ + ".tmp").c_str());
  }

  std::string path_;
};

// --- snapshot load failures ---

TEST_F(FaultE2E, ReadFaultSurfacesTypedErrorThenRecovers) {
  {
    fault::ScopedFault fault("snapshot.read", EIO, /*skip=*/0, /*times=*/1);
    auto snap =
        snapshot::Snapshot::open(path_, snapshot::Snapshot::Mode::kRead);
    ASSERT_FALSE(snap);
    EXPECT_EQ(snap.error().code, EIO);
    EXPECT_EQ(fault.trips(), 1u);
  }
  auto snap =
      snapshot::Snapshot::open(path_, snapshot::Snapshot::Mode::kRead);
  ASSERT_TRUE(snap) << snap.error().to_string();
  EXPECT_EQ(snap->record_count(), 8u);
}

TEST_F(FaultE2E, MmapFaultSurfacesTypedErrorThenRecovers) {
  {
    fault::ScopedFault fault("snapshot.mmap", ENOMEM);
    auto snap =
        snapshot::Snapshot::open(path_, snapshot::Snapshot::Mode::kMap);
    ASSERT_FALSE(snap);
    EXPECT_EQ(snap.error().code, ENOMEM);
  }
  auto snap = snapshot::Snapshot::open(path_, snapshot::Snapshot::Mode::kMap);
  ASSERT_TRUE(snap) << snap.error().to_string();
}

// --- crash-safe snapshot writes: a failure at any step of the tmp ->
// fsync -> rename publish leaves the previous file intact and loadable ---

TEST_F(FaultE2E, FailedWritePreservesTheExistingSnapshot) {
  for (const char* site : {"snapshot.write", "snapshot.fsync",
                           "snapshot.rename"}) {
    fault::ScopedFault fault(site, ENOSPC, /*skip=*/0, /*times=*/1);
    EXPECT_THROW(snapshot::write_snapshot_file(path_, sample("CLOBBER")),
                 std::runtime_error)
        << site;
    EXPECT_EQ(fault.trips(), 1u) << site;
    // The tmp file never survives a failed publish.
    EXPECT_NE(::access((path_ + ".tmp").c_str(), F_OK), 0) << site;
    // The old snapshot still loads and still carries the SEED records.
    auto snap =
        snapshot::Snapshot::open(path_, snapshot::Snapshot::Mode::kRead);
    ASSERT_TRUE(snap) << site << ": " << snap.error().to_string();
    EXPECT_EQ(snap->record_count(), 8u) << site;
    EXPECT_EQ(snap->materialize(0).netname, "NET-SEED-0") << site;
  }
}

// --- reload under injected load failure keeps the old engine ---

TEST_F(FaultE2E, InjectedReloadFailureKeepsServing) {
  auto state = serve::EngineState::load(path_);
  ASSERT_TRUE(state) << state.error().to_string();
  serve::QueryServer server(*state, serve::QueryServer::Options{});
  {
    fault::ScopedFault fault("snapshot.mmap", EIO);
    std::string response = server.handle_request("RELOAD " + path_);
    EXPECT_NE(response.find("reload failed"), std::string::npos);
  }
  EXPECT_EQ(server.stats().generation, 1u);
  EXPECT_EQ(server.stats().reload_failures, 1u);
  std::string still = server.handle_request("EXACT 10.0.3.0/24");
  EXPECT_NE(still.find("NET-SEED-3"), std::string::npos);
  // With the fault gone the same RELOAD goes through.
  std::string ok = server.handle_request("RELOAD " + path_);
  EXPECT_NE(ok.find("\"ok\":true"), std::string::npos);
  EXPECT_EQ(server.stats().generation, 2u);
}

// --- server socket faults: a poisoned connection dies, the server and the
// next connection do not ---

TEST_F(FaultE2E, ReadFaultKillsOneConnectionNotTheServer) {
  auto state = serve::EngineState::load(path_);
  ASSERT_TRUE(state) << state.error().to_string();
  serve::QueryServer server(
      *state, serve::QueryServer::Options{.port = 0, .shards = 2});
  auto port = server.start();
  ASSERT_TRUE(port);
  {
    fault::ScopedFault fault("serve.read", ECONNRESET, /*skip=*/0,
                             /*times=*/1);
    auto doomed = serve::QueryClient::connect("127.0.0.1", *port);
    ASSERT_TRUE(doomed);
    auto response = doomed->request("EXACT 10.0.0.0/24");
    EXPECT_FALSE(response);  // handler hit the fault and closed the socket
  }
  auto healthy = serve::QueryClient::connect("127.0.0.1", *port);
  ASSERT_TRUE(healthy);
  auto response = healthy->request("EXACT 10.0.0.0/24");
  ASSERT_TRUE(response) << response.error().to_string();
  EXPECT_NE(response->find("\"found\":true"), std::string::npos);
  server.stop();
}

TEST_F(FaultE2E, WriteFaultKillsOneConnectionNotTheServer) {
  auto state = serve::EngineState::load(path_);
  ASSERT_TRUE(state) << state.error().to_string();
  serve::QueryServer server(
      *state, serve::QueryServer::Options{.port = 0, .shards = 2});
  auto port = server.start();
  ASSERT_TRUE(port);
  {
    fault::ScopedFault fault("serve.write", EPIPE, /*skip=*/0, /*times=*/1);
    auto doomed = serve::QueryClient::connect("127.0.0.1", *port);
    ASSERT_TRUE(doomed);
    auto response = doomed->request("EXACT 10.0.0.0/24");
    EXPECT_FALSE(response);
  }
  auto healthy = serve::QueryClient::connect("127.0.0.1", *port);
  ASSERT_TRUE(healthy);
  auto response = healthy->request("EXACT 10.0.0.0/24");
  ASSERT_TRUE(response) << response.error().to_string();
  server.stop();
}

}  // namespace
}  // namespace sublet
