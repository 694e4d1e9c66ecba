// Differential suite for the origin-only RIB reader: read_rib_origins must
// accept and reject exactly what read_rib_file does, with the same Error,
// and agree on every prefix's (origin set, entry count) where both succeed.
// Inputs: every MRT file of a simulated world, plus every truncation and
// every single-byte mutation of a small hand-built file that exercises AS
// sets, empty paths, zero-entry records and extended-length attributes.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "mrt/bytes.h"
#include "mrt/mrt.h"
#include "mrt/rib_file.h"
#include "obs/metrics.h"
#include "simnet/builder.h"
#include "simnet/emit.h"

namespace sublet::mrt {
namespace {

namespace fs = std::filesystem;

using PerPrefix = std::map<Prefix, std::pair<std::set<Asn>, std::uint64_t>>;

PerPrefix from_snapshot(const RibSnapshot& snapshot) {
  PerPrefix out;
  for (const RibPrefixRecord& rec : snapshot.records) {
    auto& [origins, entries] = out[rec.prefix];
    entries += rec.entries.size();
    for (const RibEntry& entry : rec.entries) {
      for (Asn asn : entry.attributes.as_path.origin_asns()) {
        origins.insert(asn);
      }
    }
  }
  return out;
}

PerPrefix from_run(const OriginRun& run) {
  PerPrefix out;
  for (std::size_t i = 0; i < run.records.size(); ++i) {
    auto& [origins, entries] = out[run.records[i].prefix];
    entries += run.records[i].entries;
    for (Asn asn : run.origins_of(i)) origins.insert(asn);
  }
  return out;
}

/// Both readers on one file: same outcome, same Error, same observations.
/// Returns whether the file was accepted.
bool expect_readers_agree(const std::string& path, const std::string& what) {
  auto full = read_rib_file(path);
  auto run = read_rib_origins(path);
  EXPECT_EQ(full.has_value(), run.has_value()) << what;
  if (full.has_value() != run.has_value()) return false;
  if (!full) {
    EXPECT_EQ(full.error().message, run.error().message) << what;
    EXPECT_EQ(full.error().source, run.error().source) << what;
    return false;
  }
  EXPECT_EQ(from_snapshot(*full), from_run(*run)) << what;
  return true;
}

std::string scratch_path(const std::string& name) {
  return testing::TempDir() + "/sublet_origin_reader_" + name + "." +
         std::to_string(::getpid());
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::uint8_t> rib_body(const Prefix& prefix,
                                   const std::vector<std::vector<std::uint8_t>>&
                                       entry_attributes) {
  BufWriter w;
  w.u32(0);  // sequence
  encode_nlri_prefix(w, prefix);
  w.u16(static_cast<std::uint16_t>(entry_attributes.size()));
  for (const auto& attrs : entry_attributes) {
    w.u16(0);           // peer index
    w.u32(1711929600);  // originated time
    w.u16(static_cast<std::uint16_t>(attrs.size()));
    w.bytes(attrs);
  }
  return w.take();
}

/// A small RIB file touching every branch of both readers.
std::string hand_built_file() {
  std::ostringstream out(std::ios::binary);
  MrtWriter writer(out);
  auto rib = static_cast<std::uint16_t>(TableDumpV2Subtype::kRibIpv4Unicast);

  PeerIndexTable pit;
  pit.view_name = "x";
  pit.peers = {{Ipv4Addr(1), Ipv4Addr(2), Asn(65000)}};
  writer.write(1, MrtType::kTableDumpV2,
               static_cast<std::uint16_t>(TableDumpV2Subtype::kPeerIndexTable),
               encode_peer_index_table(pit));

  // Every attribute type the walker checks, then a trailing AS_SET.
  PathAttributes full;
  full.origin = BgpOrigin::kIgp;
  full.as_path.segments = {{AsPathSegmentType::kAsSequence, {Asn(7)}},
                           {AsPathSegmentType::kAsSet, {Asn(20), Asn(10)}}};
  full.next_hop = Ipv4Addr(9);
  full.med = 5;
  full.local_pref = 100;
  full.atomic_aggregate = true;
  full.aggregator = std::make_pair(Asn(7), Ipv4Addr(3));
  full.communities = {0x00010002};
  PathAttributes sequence;
  sequence.as_path.segments = {
      {AsPathSegmentType::kAsSequence, {Asn(3), Asn(4)}}};
  PathAttributes empty_path;
  empty_path.origin = BgpOrigin::kIncomplete;  // encodes an empty AS_PATH
  // Extended-length AS_PATH (flag 0x10 with a two-byte length).
  std::vector<std::uint8_t> extended = {0x50, 2, 0, 6, 2, 1, 0, 0, 0, 42};

  writer.write(1, MrtType::kTableDumpV2, rib,
               rib_body(*Prefix::parse("10.0.0.0/8"),
                        {encode_path_attributes(full),
                         encode_path_attributes(sequence)}));
  writer.write(1, MrtType::kTableDumpV2, rib,
               rib_body(*Prefix::parse("10.1.0.0/16"),
                        {encode_path_attributes(empty_path)}));
  writer.write(1, MrtType::kTableDumpV2, rib,
               rib_body(*Prefix::parse("10.2.0.0/16"), {}));
  writer.write(1, MrtType::kTableDumpV2, rib,
               rib_body(*Prefix::parse("192.0.2.0/24"), {extended}));
  return out.str();
}

TEST(OriginReader, HandBuiltFileHasTheExpectedOrigins) {
  std::string path = scratch_path("plain");
  write_bytes(path, hand_built_file());
  auto run = read_rib_origins(path);
  ASSERT_TRUE(run) << run.error().to_string();
  PerPrefix want;
  want[*Prefix::parse("10.0.0.0/8")] = {{Asn(4), Asn(10), Asn(20)}, 2};
  want[*Prefix::parse("10.1.0.0/16")] = {{}, 1};
  want[*Prefix::parse("10.2.0.0/16")] = {{}, 0};
  want[*Prefix::parse("192.0.2.0/24")] = {{Asn(42)}, 1};
  EXPECT_EQ(from_run(*run), want);
  EXPECT_TRUE(expect_readers_agree(path, "unmodified"));
  fs::remove(path);
}

TEST(OriginReader, AgreesWithFullDecodeOnEveryTruncationAndByteMutation) {
  const std::string bytes = hand_built_file();
  std::string path = scratch_path("mutant");
  std::size_t accepted = 0;
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    write_bytes(path, bytes.substr(0, cut));
    accepted += expect_readers_agree(path, "cut at " + std::to_string(cut));
  }
  // Mutate the file in place, one byte at a time, and put it back.
  write_bytes(path, bytes);
  int fd = ::open(path.c_str(), O_WRONLY);
  ASSERT_GE(fd, 0);
  auto put = [&](std::size_t pos, char value) {
    ASSERT_EQ(::pwrite(fd, &value, 1, static_cast<off_t>(pos)), 1);
  };
  for (std::size_t pos = 0; pos < bytes.size() && !HasFailure(); ++pos) {
    for (int value = 0; value < 256 && !HasFailure(); ++value) {
      if (static_cast<char>(value) == bytes[pos]) continue;
      put(pos, static_cast<char>(value));
      accepted += expect_readers_agree(
          path, "byte " + std::to_string(pos) + " = " + std::to_string(value));
    }
    put(pos, bytes[pos]);
  }
  ::close(fd);
  // Mutations inside ASN and address words are legal, so a good share of
  // the mutants must reach the observation comparison.
  EXPECT_GT(accepted, bytes.size() * 10);
  fs::remove(path);
}

TEST(OriginReader, AgreesWithFullDecodeOnSimulatedWorld) {
  sim::WorldConfig config;
  config.seed = 5;
  config.scale = 0.05;
  std::string dir = scratch_path("world");
  fs::remove_all(dir);
  sim::emit_world(sim::build_world(config), dir);
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir + "/bgp")) {
    EXPECT_TRUE(expect_readers_agree(entry.path().string(),
                                     entry.path().filename().string()));
    ++files;
  }
  EXPECT_GT(files, 0u);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(OriginReader, SkippedSubtypesAreCountedByBothReaders) {
  std::string bytes = hand_built_file();
  std::ostringstream extra(std::ios::binary);
  MrtWriter writer(extra);
  std::vector<std::uint8_t> add_path_body = {0, 0, 0, 0, 8, 10};
  writer.write(1, MrtType::kTableDumpV2, 8, add_path_body);
  std::string path = scratch_path("skip");
  write_bytes(path, bytes + extra.str());

  auto& skipped = obs::MetricsRegistry::global().counter(
      "sublet_mrt_records_skipped_total{type=\"13\",subtype=\"8\"}");
  std::uint64_t before = skipped.value();
  auto run = read_rib_origins(path);
  ASSERT_TRUE(run) << run.error().to_string();
  ASSERT_EQ(run->skipped.size(), 1u);
  EXPECT_EQ(run->skipped[0].type, 13);
  EXPECT_EQ(run->skipped[0].subtype, 8);
  EXPECT_EQ(run->skipped[0].count, 1u);
  EXPECT_EQ(skipped.value(), before + 1);
  ASSERT_TRUE(read_rib_file(path));
  EXPECT_EQ(skipped.value(), before + 2);
  fs::remove(path);
}

}  // namespace
}  // namespace sublet::mrt
