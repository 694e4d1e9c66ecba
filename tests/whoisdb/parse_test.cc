#include "whoisdb/parse.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "util/parallel.h"

namespace sublet::whois {
namespace {

WhoisDb parse(const std::string& text, Rir rir,
              std::vector<Error>* diags = nullptr) {
  std::istringstream in(text);
  return parse_whois_db(in, rir, "<test>", diags);
}

// ------------------------------------------------------------- RPSL -------

constexpr const char* kRipeSample = R"(
% RIPE database subset, mirrors Figure 2 of the paper

inetnum:        213.210.0.0 - 213.210.63.255
netname:        SE-GCI-NET
org:            ORG-GCI1-RIPE
status:         ALLOCATED PA
mnt-by:         MNT-GCICOM
country:        SE
source:         RIPE

inetnum:        213.210.2.0 - 213.210.3.255
netname:        GCI-CUSTOMER
status:         ASSIGNED PA
mnt-by:         MNT-GCICOM
source:         RIPE

inetnum:        213.210.33.0 - 213.210.33.255
netname:        IPXO-LEASE
status:         ASSIGNED PA
mnt-by:         IPXO-MNT
source:         RIPE

aut-num:        AS8851
as-name:        GCI-AS
org:            ORG-GCI1-RIPE
mnt-by:         MNT-GCICOM
source:         RIPE

organisation:   ORG-GCI1-RIPE
org-name:       GCI Network
mnt-by:         MNT-GCICOM
mnt-ref:        MNT-GCIREF
country:        SE
source:         RIPE

person:         Irrelevant Person
nic-hdl:        IP1-RIPE
source:         RIPE
)";

TEST(RipeParse, BlocksWithPortability) {
  auto db = parse(kRipeSample, Rir::kRipe);
  ASSERT_EQ(db.blocks().size(), 3u);
  const auto& root = db.blocks()[0];
  EXPECT_EQ(root.netname, "SE-GCI-NET");
  EXPECT_EQ(root.portability, Portability::kPortable);
  EXPECT_EQ(root.org_id, "ORG-GCI1-RIPE");
  EXPECT_EQ(root.range.to_string(), "213.210.0.0 - 213.210.63.255");

  const auto& lease = db.blocks()[2];
  EXPECT_EQ(lease.portability, Portability::kNonPortable);
  ASSERT_EQ(lease.maintainers.size(), 1u);
  EXPECT_EQ(lease.maintainers[0], "IPXO-MNT");
}

TEST(RipeParse, AutNumAndOrgJoin) {
  auto db = parse(kRipeSample, Rir::kRipe);
  ASSERT_EQ(db.autnums().size(), 1u);
  EXPECT_EQ(db.autnums()[0].asn, Asn(8851));

  auto asns = db.asns_for_org("ORG-GCI1-RIPE");
  ASSERT_EQ(asns.size(), 1u);
  EXPECT_EQ(asns[0], Asn(8851));

  // Case-insensitive join.
  EXPECT_EQ(db.asns_for_org("org-gci1-ripe").size(), 1u);
  EXPECT_TRUE(db.asns_for_org("ORG-NONE").empty());
}

TEST(RipeParse, OrgRecordWithMntRef) {
  auto db = parse(kRipeSample, Rir::kRipe);
  const OrgRec* org = db.org("ORG-GCI1-RIPE");
  ASSERT_NE(org, nullptr);
  EXPECT_EQ(org->name, "GCI Network");
  ASSERT_EQ(org->maintainers.size(), 2u);
  EXPECT_EQ(org->maintainers[0], "MNT-GCICOM");
  EXPECT_EQ(org->maintainers[1], "MNT-GCIREF");
}

TEST(RipeParse, PersonObjectsIgnored) {
  auto db = parse(kRipeSample, Rir::kRipe);
  EXPECT_EQ(db.blocks().size() + db.autnums().size(), 4u);
}

TEST(RipeParse, BadRangeIsDiagnosedAndSkipped) {
  std::vector<Error> diags;
  auto db = parse(
      "inetnum: 10.0.1.0 - 10.0.0.0\nstatus: ASSIGNED PA\n\n"
      "inetnum: 10.1.0.0 - 10.1.0.255\nstatus: ASSIGNED PA\n",
      Rir::kRipe, &diags);
  EXPECT_EQ(db.blocks().size(), 1u);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("bad inetnum"), std::string::npos);
}

TEST(RipeParse, BadAutNumDiagnosed) {
  std::vector<Error> diags;
  auto db = parse("aut-num: ASFOO\n", Rir::kRipe, &diags);
  EXPECT_TRUE(db.autnums().empty());
  EXPECT_EQ(diags.size(), 1u);
}

TEST(ApnicParse, PortableVocabulary) {
  auto db = parse(
      "inetnum: 1.0.0.0 - 1.0.255.255\nstatus: ALLOCATED PORTABLE\n\n"
      "inetnum: 1.0.4.0 - 1.0.4.255\nstatus: ASSIGNED NON-PORTABLE\n",
      Rir::kApnic);
  ASSERT_EQ(db.blocks().size(), 2u);
  EXPECT_EQ(db.blocks()[0].portability, Portability::kPortable);
  EXPECT_EQ(db.blocks()[1].portability, Portability::kNonPortable);
}

// ------------------------------------------------------------- ARIN -------

constexpr const char* kArinSample = R"(
NetHandle:      NET-192-0-2-0-1
OrgID:          EGIH
Parent:         NET-192-0-0-0-0
NetName:        EGI-NET
NetRange:       192.0.2.0 - 192.0.2.255
NetType:        Direct Allocation
Country:        US

NetHandle:      NET-192-0-2-128-1
OrgID:          CUST-7
Parent:         NET-192-0-2-0-1
NetName:        CUSTOMER-NET
NetRange:       192.0.2.128 - 192.0.2.255
NetType:        Reassignment

ASHandle:       AS64500
OrgID:          EGIH
ASName:         EGI-AS

OrgID:          EGIH
OrgName:        EGIHosting
Country:        US
)";

TEST(ArinParse, NetHandleBlocks) {
  auto db = parse(kArinSample, Rir::kArin);
  ASSERT_EQ(db.blocks().size(), 2u);
  EXPECT_EQ(db.blocks()[0].portability, Portability::kPortable);
  EXPECT_EQ(db.blocks()[0].org_id, "EGIH");
  EXPECT_EQ(db.blocks()[1].portability, Portability::kNonPortable);
  // ARIN maintainer == OrgID.
  ASSERT_EQ(db.blocks()[1].maintainers.size(), 1u);
  EXPECT_EQ(db.blocks()[1].maintainers[0], "CUST-7");
}

TEST(ArinParse, AsHandleAndOrg) {
  auto db = parse(kArinSample, Rir::kArin);
  ASSERT_EQ(db.autnums().size(), 1u);
  EXPECT_EQ(db.autnums()[0].asn, Asn(64500));
  EXPECT_EQ(db.asns_for_org("EGIH"), std::vector<Asn>{Asn(64500)});
  const OrgRec* org = db.org("EGIH");
  ASSERT_NE(org, nullptr);
  EXPECT_EQ(org->name, "EGIHosting");
}

// ----------------------------------------------------------- LACNIC -------

constexpr const char* kLacnicSample = R"(
inetnum:        200.0.0.0/16
status:         allocated
owner:          Radiografica Costarricense
ownerid:        CR-RACS-LACNIC
country:        CR

inetnum:        200.0.4.0/24
status:         reassigned
owner:          Cliente Ejemplo
ownerid:        CR-CLEJ-LACNIC
country:        CR

aut-num:        AS52263
owner:          Radiografica Costarricense
ownerid:        CR-RACS-LACNIC
)";

TEST(LacnicParse, CidrBlocksAndSynthesizedOrgs) {
  auto db = parse(kLacnicSample, Rir::kLacnic);
  ASSERT_EQ(db.blocks().size(), 2u);
  EXPECT_EQ(db.blocks()[0].range.to_string(), "200.0.0.0 - 200.0.255.255");
  EXPECT_EQ(db.blocks()[0].portability, Portability::kPortable);
  EXPECT_EQ(db.blocks()[1].portability, Portability::kNonPortable);

  const OrgRec* org = db.org("CR-RACS-LACNIC");
  ASSERT_NE(org, nullptr);
  EXPECT_EQ(org->name, "Radiografica Costarricense");
  EXPECT_EQ(db.asns_for_org("CR-RACS-LACNIC"),
            std::vector<Asn>{Asn(52263)});
}

TEST(LacnicParse, AutnumLookup) {
  auto db = parse(kLacnicSample, Rir::kLacnic);
  const AutNumRec* rec = db.autnum(Asn(52263));
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->org_id, "CR-RACS-LACNIC");
  EXPECT_EQ(db.autnum(Asn(1)), nullptr);
}

TEST(LoadWhoisFile, ThrowsOnMissing) {
  EXPECT_THROW(load_whois_file("/nonexistent/ripe.db", Rir::kRipe),
               std::runtime_error);
}

// ------------------------------------------- chunked-parse determinism ----

/// Full-content fingerprint of a parsed db: record order matters for
/// blocks/autnums (serial file order), orgs sort by handle because the org
/// map's iteration order is unspecified.
std::string fingerprint(const WhoisDb& db) {
  std::ostringstream out;
  for (const InetBlock& b : db.blocks()) {
    out << "B|" << b.range.to_string() << '|' << b.netname << '|' << b.status
        << '|' << portability_name(b.portability) << '|' << b.org_id << '|'
        << b.country << '|';
    for (const auto& m : b.maintainers) out << m << ',';
    out << '\n';
  }
  for (const AutNumRec& a : db.autnums()) {
    out << "A|" << a.asn.value() << '|' << a.as_name << '|' << a.org_id
        << '\n';
  }
  auto orgs = db.all_orgs();
  std::sort(orgs.begin(), orgs.end(),
            [](const OrgRec* a, const OrgRec* b) { return a->id < b->id; });
  for (const OrgRec* o : orgs) {
    out << "O|" << o->id << '|' << o->name << '|' << o->country << '|';
    for (const auto& m : o->maintainers) out << m << ',';
    out << '\n';
  }
  return out.str();
}

std::string render(const std::vector<Error>& diags) {
  std::string out;
  for (const Error& e : diags) {
    out += e.to_string();
    out += '\n';
  }
  return out;
}

/// A RIPE-dialect text large enough (>64 KiB) that the paragraph splitter
/// produces several slices, with malformed objects sprinkled in so the
/// diagnostics stream is exercised too.
std::string big_ripe_text() {
  std::ostringstream out;
  out << "% synthetic RIPE dump for chunked-parse determinism tests\n\n";
  for (int i = 0; i < 2000; ++i) {
    int a = i / 256, b = i % 256;
    out << "inetnum:        10." << a << "." << b << ".0 - 10." << a << "."
        << b << ".255\n"
        << "netname:        NET-" << i << "\n"
        << "org:            ORG-SYN" << (i % 37) << "-RIPE\n"
        << "status:         " << (i % 3 == 0 ? "ALLOCATED PA" : "ASSIGNED PA")
        << "\nmnt-by:         MNT-" << (i % 11) << "\n"
        << "country:        DE\nsource:         RIPE\n\n";
    if (i % 97 == 0) {
      // Malformed range: emits a consume diagnostic at a known line.
      out << "inetnum:        not-a-range-" << i << "\n"
          << "netname:        BROKEN-" << i << "\nsource:         RIPE\n\n";
    }
    if (i % 50 == 0) {
      out << "aut-num:        AS" << (64496 + i) << "\n"
          << "as-name:        SYN-AS-" << i << "\n"
          << "org:            ORG-SYN" << (i % 37) << "-RIPE\n"
          << "source:         RIPE\n\n";
    }
    if (i % 100 == 0) {
      // Same handle re-registered: the serial parser keeps the last record.
      out << "organisation:   ORG-SYN" << (i % 37) << "-RIPE\n"
          << "org-name:       Synth Org v" << i << "\n"
          << "country:        DE\nsource:         RIPE\n\n";
    }
  }
  return out.str();
}

TEST(ChunkedParse, RipeIdenticalAcrossThreadCounts) {
  std::string text = big_ripe_text();
  ASSERT_GT(text.size(), std::size_t{64} * 1024)
      << "text must be large enough to engage the paragraph splitter";

  std::vector<Error> serial_diags;
  auto serial =
      parse_whois_text(text, Rir::kRipe, "<big>", &serial_diags, 1);
  EXPECT_FALSE(serial_diags.empty()) << "malformed objects should diagnose";
  std::string want_db = fingerprint(serial);
  std::string want_diags = render(serial_diags);

  for (unsigned threads : {2u, 8u}) {
    std::vector<Error> diags;
    auto db = parse_whois_text(text, Rir::kRipe, "<big>", &diags, threads);
    EXPECT_EQ(fingerprint(db), want_db) << "threads=" << threads;
    EXPECT_EQ(render(diags), want_diags) << "threads=" << threads;
  }
}

TEST(ChunkedParse, StreamAndTextAgree) {
  std::string text = big_ripe_text();
  std::istringstream in(text);
  std::vector<Error> stream_diags, text_diags;
  auto from_stream = parse_whois_db(in, Rir::kRipe, "<big>", &stream_diags, 4);
  auto from_text = parse_whois_text(text, Rir::kRipe, "<big>", &text_diags, 1);
  EXPECT_EQ(fingerprint(from_stream), fingerprint(from_text));
  EXPECT_EQ(render(stream_diags), render(text_diags));
}

TEST(ChunkedParse, LacnicKeepsFirstOwnerNameAcrossChunks) {
  // Thousands of LACNIC blocks sharing one ownerid with evolving owner
  // names. The serial parser synthesizes the org from the FIRST block; a
  // chunked parse must not let a later chunk's name win.
  std::ostringstream out;
  for (int i = 0; i < 4000; ++i) {
    out << "inetnum:        200." << (i / 256) << "." << (i % 256)
        << ".0/24\nstatus:         reassigned\n"
        << "owner:          Owner Name v" << i << "\n"
        << "ownerid:        BR-SHARED-LACNIC\ncountry:        BR\n\n";
  }
  std::string text = out.str();
  ASSERT_GT(text.size(), std::size_t{64} * 1024);

  for (unsigned threads : {1u, 2u, 8u}) {
    auto db = parse_whois_text(text, Rir::kLacnic, "<lacnic>", nullptr,
                               threads);
    ASSERT_EQ(db.block_count(), 4000u) << "threads=" << threads;
    const OrgRec* org = db.org("BR-SHARED-LACNIC");
    ASSERT_NE(org, nullptr) << "threads=" << threads;
    EXPECT_EQ(org->name, "Owner Name v0") << "threads=" << threads;
  }
}

TEST(ChunkedParse, EmptyTextAndFileParseToAnEmptyDatabase) {
  std::string path = testing::TempDir() + "/sublet_empty_whois_" +
                     std::to_string(::getpid()) + ".db";
  { std::ofstream touch(path); }
  for (unsigned threads : {1u, 4u}) {
    EXPECT_EQ(parse_whois_text("", Rir::kRipe, "<empty>", nullptr, threads)
                  .block_count(),
              0u);
    std::optional<WhoisDb> db;
    par::TaskGroup group(threads);
    load_whois_file(group, path, Rir::kArin, db, nullptr, 0);
    group.wait();
    ASSERT_TRUE(db.has_value()) << "threads=" << threads;
    EXPECT_EQ(db->rir(), Rir::kArin);
    EXPECT_EQ(db->block_count(), 0u);
  }
  std::remove(path.c_str());
}

TEST(ChunkedParse, DiagnosticLineNumbersMatchSerial) {
  std::string text = big_ripe_text();
  std::vector<Error> serial_diags, par_diags;
  parse_whois_text(text, Rir::kRipe, "<big>", &serial_diags, 1);
  parse_whois_text(text, Rir::kRipe, "<big>", &par_diags, 8);
  ASSERT_EQ(serial_diags.size(), par_diags.size());
  for (std::size_t i = 0; i < serial_diags.size(); ++i) {
    EXPECT_EQ(serial_diags[i].line, par_diags[i].line) << "diag " << i;
    EXPECT_GT(par_diags[i].line, 0u) << "diag " << i;
  }
}

}  // namespace
}  // namespace sublet::whois
