#include "leasing/report.h"

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "util/csv.h"
#include "util/strings.h"

namespace sublet::leasing {
namespace {

Prefix P(const char* s) { return *Prefix::parse(s); }

std::vector<LeaseInference> sample() {
  LeaseInference a;
  a.prefix = P("213.210.33.0/24");
  a.rir = whois::Rir::kRipe;
  a.group = InferenceGroup::kLeasedWithRoot;
  a.root_prefix = P("213.210.0.0/18");
  a.holder_org = "ORG-GCI1-RIPE";
  a.holder_asns = {Asn(8851)};
  a.leaf_origins = {Asn(15169)};
  a.root_origins = {Asn(8851)};
  a.leaf_maintainers = {"IPXO-MNT"};
  a.netname = "IPXO-LEASE";

  LeaseInference b;
  b.prefix = P("198.51.1.0/24");
  b.rir = whois::Rir::kArin;
  b.group = InferenceGroup::kUnused;
  b.root_prefix = P("198.51.0.0/16");
  b.holder_org = "EGIH";
  return {a, b};
}

TEST(Report, RoundTrip) {
  std::ostringstream out;
  write_inferences_csv(out, sample());
  std::istringstream in(out.str());
  auto loaded = read_inferences_csv(in);
  ASSERT_TRUE(loaded) << loaded.error().to_string();
  ASSERT_EQ(loaded->size(), 2u);

  const LeaseInference& a = (*loaded)[0];
  EXPECT_EQ(a.prefix.to_string(), "213.210.33.0/24");
  EXPECT_EQ(a.rir, whois::Rir::kRipe);
  EXPECT_EQ(a.group, InferenceGroup::kLeasedWithRoot);
  EXPECT_TRUE(a.leased());
  EXPECT_EQ(a.root_prefix.to_string(), "213.210.0.0/18");
  EXPECT_EQ(a.holder_asns, std::vector<Asn>{Asn(8851)});
  EXPECT_EQ(a.leaf_origins, std::vector<Asn>{Asn(15169)});
  EXPECT_EQ(a.leaf_maintainers, std::vector<std::string>{"IPXO-MNT"});
  EXPECT_EQ(a.netname, "IPXO-LEASE");

  const LeaseInference& b = (*loaded)[1];
  EXPECT_EQ(b.group, InferenceGroup::kUnused);
  EXPECT_FALSE(b.leased());
  EXPECT_TRUE(b.leaf_origins.empty());
}

TEST(Report, GroupNamesRoundTrip) {
  // kAllInferenceGroups is the exhaustive list (enforced at compile time by
  // the static_assert in leasing/types.h); iterating it means a future
  // group gets this coverage automatically instead of silently mapping to
  // "?" in the artifact.
  for (InferenceGroup group : kAllInferenceGroups) {
    EXPECT_NE(group_name(group), "?");
    auto parsed = group_from_name(group_name(group));
    ASSERT_TRUE(parsed);
    EXPECT_EQ(*parsed, group);
  }
  EXPECT_FALSE(group_from_name("not-a-group"));
  EXPECT_FALSE(group_from_name("?"));
}

TEST(Report, QuotedFieldsRoundTrip) {
  LeaseInference r;
  r.prefix = P("203.0.113.0/24");
  r.rir = whois::Rir::kApnic;
  r.group = InferenceGroup::kLeasedNoRoot;
  r.root_prefix = P("203.0.0.0/16");
  r.holder_org = "Acme, \"Networks\" Ltd";
  r.netname = "NET\nWITH\r\nBREAKS";
  std::ostringstream out;
  write_inferences_csv(out, {r});
  std::istringstream in(out.str());
  auto loaded = read_inferences_csv(in);
  ASSERT_TRUE(loaded) << loaded.error().to_string();
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ((*loaded)[0].holder_org, r.holder_org);
  EXPECT_EQ((*loaded)[0].netname, r.netname);
}

TEST(Report, RandomStringsSurviveRoundTrip) {
  // Property test: any printable content in the free-text columns — commas,
  // quotes, CR/LF, separators — must survive write -> read byte-for-byte.
  std::mt19937 rng(0xC5Fu);
  const std::string alphabet =
      "abcXYZ012 ,\"\n\r;'\\|\t#-_.:/()";
  std::uniform_int_distribution<std::size_t> pick(0, alphabet.size() - 1);
  std::uniform_int_distribution<std::size_t> len(0, 24);
  auto random_string = [&] {
    std::string s(len(rng), '\0');
    for (char& c : s) c = alphabet[pick(rng)];
    return s;
  };
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<LeaseInference> records;
    for (std::uint32_t i = 0; i < 3; ++i) {
      LeaseInference r;
      r.prefix = *Prefix::make(
          Ipv4Addr((198u << 24) | (static_cast<std::uint32_t>(trial) << 10) |
                   (i << 8)),
          24);
      r.rir = whois::Rir::kRipe;
      r.group = kAllInferenceGroups[i % kAllInferenceGroups.size()];
      r.root_prefix = P("198.0.0.0/8");
      r.holder_org = random_string();
      r.netname = random_string();
      records.push_back(std::move(r));
    }
    std::ostringstream out;
    write_inferences_csv(out, records);
    std::istringstream in(out.str());
    auto loaded = read_inferences_csv(in);
    ASSERT_TRUE(loaded) << "trial " << trial << ": "
                        << loaded.error().to_string();
    ASSERT_EQ(loaded->size(), records.size()) << "trial " << trial;
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ((*loaded)[i].holder_org, records[i].holder_org)
          << "trial " << trial;
      EXPECT_EQ((*loaded)[i].netname, records[i].netname)
          << "trial " << trial;
    }
  }
}

/// The rendering write_inferences_csv had when it built every field as a
/// string and handed the row to CsvWriter: the oracle for the buffered
/// writer.
std::string oracle_csv(const std::vector<LeaseInference>& inferences) {
  auto join_asns = [](const std::vector<Asn>& asns) {
    std::vector<std::string> parts;
    for (Asn asn : asns) parts.push_back(std::to_string(asn.value()));
    return join(parts, " ");
  };
  std::ostringstream out;
  CsvWriter csv(out);
  csv.write_row({"prefix", "rir", "group", "leased", "root_prefix",
                 "holder_org", "holder_asns", "leaf_origins", "root_origins",
                 "facilitators", "netname"});
  for (const LeaseInference& r : inferences) {
    csv.write_row({
        r.prefix.to_string(),
        std::string(rir_name(r.rir)),
        std::string(group_name(r.group)),
        r.leased() ? "1" : "0",
        r.root_prefix.to_string(),
        r.holder_org,
        join_asns(r.holder_asns),
        join_asns(r.leaf_origins),
        join_asns(r.root_origins),
        join(r.leaf_maintainers, " "),
        r.netname,
    });
  }
  return out.str();
}

/// Collects what the writer hands the stream, one entry per write.
class RecordingBuf : public std::streambuf {
 public:
  std::string text;
  std::vector<std::size_t> writes;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    text.append(s, static_cast<std::size_t>(n));
    writes.push_back(static_cast<std::size_t>(n));
    return n;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      text.push_back(traits_type::to_char_type(c));
      writes.push_back(1);
    }
    return c;
  }
};

TEST(Report, WriterMatchesCsvWriterOracle) {
  std::mt19937 rng(0x5EED1u);
  const std::string alphabet = "abcXYZ019 -_.,\"\r\n";
  std::uniform_int_distribution<std::size_t> pick(0, alphabet.size() - 1);
  std::uniform_int_distribution<std::size_t> len(0, 20);
  std::uniform_int_distribution<std::uint32_t> any32;
  std::uniform_int_distribution<int> small(0, 3);
  auto text = [&] {
    std::string s(len(rng), '\0');
    for (char& c : s) c = alphabet[pick(rng)];
    return s;
  };
  auto asns = [&] {
    std::vector<Asn> out;
    for (int i = small(rng); i > 0; --i) {
      switch (small(rng)) {
        case 0: out.push_back(Asn(0)); break;
        case 1: out.push_back(Asn(4294967295u)); break;
        default: out.push_back(Asn(any32(rng))); break;
      }
    }
    return out;
  };
  const Prefix edges[] = {P("0.0.0.0/0"), P("255.255.255.255/32")};

  std::vector<LeaseInference> rows;
  std::size_t expected_bytes = 0;
  while (expected_bytes < (std::size_t{7} << 19)) {  // > 3 MiB of rows
    LeaseInference r;
    std::size_t i = rows.size();
    r.prefix = i < 2 ? edges[i]
                     : *Prefix::make(Ipv4Addr(any32(rng)), small(rng) * 8 + 8);
    r.root_prefix = i < 2 ? edges[1 - i] : *Prefix::make(r.prefix.network(), 8);
    r.rir = whois::kAllRirs[i % whois::kAllRirs.size()];
    r.group = kAllInferenceGroups[i % kAllInferenceGroups.size()];
    r.holder_org = text();
    r.netname = text();
    for (int m = small(rng); m > 0; --m) r.leaf_maintainers.push_back(text());
    r.holder_asns = asns();
    r.leaf_origins = asns();
    r.root_origins = asns();
    expected_bytes += 60 + r.holder_org.size() + r.netname.size();
    rows.push_back(std::move(r));
  }
  const std::string expected = oracle_csv(rows);
  ASSERT_GT(expected.size(), std::size_t{3} << 20);

  RecordingBuf buf;
  std::ostream out(&buf);
  write_inferences_csv(out, rows);
  ASSERT_EQ(buf.text.size(), expected.size());
  EXPECT_TRUE(buf.text == expected) << "buffered rendering differs";
  // The buffer is flushed as it fills instead of growing with the file:
  // several writes, none much over 1 MiB.
  EXPECT_GE(buf.writes.size(), 3u);
  for (std::size_t n : buf.writes) EXPECT_LE(n, (std::size_t{1} << 20) + 4096);
}

TEST(Report, RejectsBadContent) {
  std::istringstream bad_group(
      "prefix,rir,group,leased,root_prefix,holder_org,holder_asns,"
      "leaf_origins,root_origins,facilitators,netname\n"
      "10.0.0.0/24,RIPE,bogus,0,,,,,,,\n");
  EXPECT_FALSE(read_inferences_csv(bad_group));

  std::istringstream short_row("10.0.0.0/24,RIPE,unused\n");
  EXPECT_FALSE(read_inferences_csv(short_row));

  std::istringstream bad_asn(
      "10.0.0.0/24,RIPE,unused,0,10.0.0.0/16,ORG,xyz,,,,\n");
  EXPECT_FALSE(read_inferences_csv(bad_asn));
}

TEST(Report, FileRoundTrip) {
  std::string path = testing::TempDir() + "/sublet_report.csv";
  save_inferences_csv(path, sample());
  auto loaded = load_inferences_csv(path);
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->size(), 2u);
  std::remove(path.c_str());
  EXPECT_FALSE(load_inferences_csv(path));
}

}  // namespace
}  // namespace sublet::leasing
