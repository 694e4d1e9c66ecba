// End-to-end integration: generate a world, emit every dataset dialect,
// load it back through the public API, run the full inference pipeline, and
// check the paper-shape properties that the benches report at full scale.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "leasing/abuse_analysis.h"
#include "leasing/baseline.h"
#include "leasing/dataset.h"
#include "leasing/ecosystem.h"
#include "leasing/evaluation.h"
#include "leasing/pipeline.h"
#include "simnet/builder.h"
#include "simnet/emit.h"
#include "simnet/ground_truth.h"

namespace sublet {
namespace {

namespace fs = std::filesystem;

class EndToEnd : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    // ctest runs each discovered test in its own process; the scratch dir
    // must be per-process or concurrent emit/remove_all calls race.
    dir_ = new std::string(testing::TempDir() + "/sublet_e2e." +
                           std::to_string(::getpid()));
    fs::remove_all(*dir_);
    sim::WorldConfig config;
    config.seed = 20240401;
    config.scale = 0.12;
    sim::World world = sim::build_world(config);
    sim::emit_world(world, *dir_);

    bundle_ = new leasing::DatasetBundle(leasing::load_dataset(*dir_));
    truth_ = new sim::GroundTruth(sim::GroundTruth::load(*dir_));

    graph_ = new asgraph::AsGraph(&bundle_->as_rel, &bundle_->as2org);
    leasing::Pipeline pipeline(bundle_->rib, *graph_);
    results_ = new std::vector<leasing::LeaseInference>(
        pipeline.classify(bundle_->whois));
  }

  static void TearDownTestSuite() {
    std::error_code ec;
    fs::remove_all(*dir_, ec);  // best effort; never throw from teardown
    delete results_;
    delete graph_;
    delete truth_;
    delete bundle_;
    delete dir_;
  }

  static std::string* dir_;
  static leasing::DatasetBundle* bundle_;
  static sim::GroundTruth* truth_;
  static asgraph::AsGraph* graph_;
  static std::vector<leasing::LeaseInference>* results_;
};

std::string* EndToEnd::dir_ = nullptr;
leasing::DatasetBundle* EndToEnd::bundle_ = nullptr;
sim::GroundTruth* EndToEnd::truth_ = nullptr;
asgraph::AsGraph* EndToEnd::graph_ = nullptr;
std::vector<leasing::LeaseInference>* EndToEnd::results_ = nullptr;

TEST_F(EndToEnd, ClassifiesEveryNonLegacyLeaf) {
  std::size_t legacy = 0;
  for (const auto& row : truth_->rows()) {
    if (row.legacy) ++legacy;
  }
  EXPECT_NEAR(static_cast<double>(results_->size() + legacy),
              static_cast<double>(truth_->rows().size()),
              truth_->rows().size() * 0.01);
}

TEST_F(EndToEnd, AgreesWithTruthOnActiveLeases) {
  // The classifier should recover nearly every *active* lease; inactive
  // leases are unreachable by design (they are not in BGP).
  std::size_t active = 0, recovered = 0;
  std::unordered_map<Prefix, bool, PrefixHash> inferred;
  for (const auto& r : *results_) inferred[r.prefix] = r.leased();
  for (const auto& row : truth_->rows()) {
    if (!row.is_leased || !row.active || row.legacy) continue;
    ++active;
    auto it = inferred.find(row.prefix);
    if (it != inferred.end() && it->second) ++recovered;
  }
  ASSERT_GT(active, 100u);
  EXPECT_GT(static_cast<double>(recovered) / active, 0.93)
      << recovered << "/" << active;
}

TEST_F(EndToEnd, LeaseVerdictsAreMostlyTrueLeases) {
  std::size_t leased = 0, correct = 0;
  for (const auto& r : *results_) {
    if (!r.leased()) continue;
    ++leased;
    const sim::TruthRow* row = truth_->find(r.prefix);
    if (row && row->is_leased) ++correct;
  }
  ASSERT_GT(leased, 100u);
  EXPECT_GT(static_cast<double>(correct) / leased, 0.9)
      << correct << "/" << leased;
}

TEST_F(EndToEnd, GroupCountsFollowTable1Shape) {
  std::vector<leasing::LeaseInference> ripe;
  for (const auto& r : *results_) {
    if (r.rir == whois::Rir::kRipe) ripe.push_back(r);
  }
  auto counts = leasing::Pipeline::count_groups(ripe);
  ASSERT_GT(counts.total(), 1000u);
  double total = static_cast<double>(counts.total());
  EXPECT_NEAR(counts.aggregated_customer / total, 0.574, 0.07);
  EXPECT_NEAR(counts.unused / total, 0.179, 0.07);
  EXPECT_NEAR(counts.leased() / total, 0.0805, 0.04);
  EXPECT_GT(counts.leased_g3, counts.leased_g4)
      << "RIPE: group-3 leases dominate group 4 (26,774 vs 1,872)";
}

TEST_F(EndToEnd, RipeHasMostLeases) {
  std::map<whois::Rir, std::size_t> leases;
  for (const auto& r : *results_) {
    if (r.leased()) ++leases[r.rir];
  }
  for (whois::Rir rir : whois::kAllRirs) {
    if (rir == whois::Rir::kRipe) continue;
    EXPECT_GT(leases[whois::Rir::kRipe], leases[rir]) << rir_name(rir);
  }
}

TEST_F(EndToEnd, BrokerEvaluationShape) {
  // Reproduce the Table 2 protocol on the emitted world: broker positives,
  // ISP negatives, confusion matrix.
  const whois::WhoisDb* ripe = bundle_->db_for(whois::Rir::kRipe);
  ASSERT_NE(ripe, nullptr);
  auto tree = whois::AllocationTree::build(*ripe);
  auto match = leasing::match_brokers(
      *ripe, bundle_->brokers.at(whois::Rir::kRipe), bundle_->rib);
  EXPECT_GT(match.direct_matches, 0u);
  EXPECT_GT(match.fuzzy_matches, 0u) << "suffix-variant spellings matched";
  EXPECT_GE(match.unmatched, 2u) << "phantom brokers stay unmatched";
  EXPECT_GT(match.prefixes.size(), 50u);

  leasing::ReferenceDataset reference;
  for (const Prefix& p : match.prefixes) reference.add(p, true);
  auto negatives = leasing::isp_negatives(
      *ripe, bundle_->eval_isp_orgs.at(whois::Rir::kRipe), tree,
      bundle_->rib);
  EXPECT_GE(negatives.size(), 10u);
  for (const Prefix& p : negatives) reference.add(p, false);

  auto matrix = leasing::evaluate(*results_, reference);
  EXPECT_GT(matrix.precision(), 0.9) << "paper: 0.98";
  EXPECT_GT(matrix.recall(), 0.7) << "paper: 0.82";
  EXPECT_LT(matrix.recall(), 0.97)
      << "inactive leases must produce false negatives";
  EXPECT_GT(matrix.fp, 0u) << "subsidiary (Vodafone-style) false positives";
}

TEST_F(EndToEnd, AbuseRatiosFollowPaper) {
  leasing::AbuseAnalysis analysis(*results_, bundle_->rib);
  auto drop_stats = analysis.prefix_overlap(bundle_->drop);
  ASSERT_GT(drop_stats.leased_total, 100u);
  ASSERT_GT(drop_stats.nonleased_total, 1000u);
  EXPECT_GT(drop_stats.risk_ratio(), 2.5)
      << "paper: leased ~5x more likely DROP-originated";

  auto hijacker_stats = analysis.originator_overlap(bundle_->hijackers);
  EXPECT_GT(hijacker_stats.leased_prefixes_by_listed, 0u);
  double hijacked_share =
      static_cast<double>(hijacker_stats.leased_prefixes_by_listed) /
      hijacker_stats.leased_prefixes_total;
  EXPECT_NEAR(hijacked_share, 0.133, 0.08);
}

TEST_F(EndToEnd, RoaAbuseShape) {
  leasing::AbuseAnalysis analysis(*results_, bundle_->rib);
  ASSERT_NE(bundle_->current_vrps(), nullptr);
  auto roa_stats = analysis.roa_overlap(*bundle_->current_vrps(),
                                        bundle_->drop);
  ASSERT_GT(roa_stats.leased_roas_total, 50u);
  double leased_listed =
      static_cast<double>(roa_stats.leased_roas_listed) /
      roa_stats.leased_roas_total;
  double nonleased_listed =
      roa_stats.nonleased_roas_total
          ? static_cast<double>(roa_stats.nonleased_roas_listed) /
                roa_stats.nonleased_roas_total
          : 0;
  EXPECT_GT(leased_listed, nonleased_listed)
      << "ROAs on leased space are more often blocklisted (§6.4)";
}

TEST_F(EndToEnd, EcosystemHeavyTails) {
  leasing::Ecosystem eco(*results_, &bundle_->as2org);
  auto ripe_holders = eco.top_holders(whois::Rir::kRipe, 3);
  ASSERT_EQ(ripe_holders.size(), 3u);
  EXPECT_GT(ripe_holders[0].count, ripe_holders[2].count);

  // AFRINIC: Cloud-Innovation-style dominance of the top holder. At this
  // scale the runner-up may have zero leases; dominance is what matters.
  auto afrinic = eco.top_holders(whois::Rir::kAfrinic, 3);
  ASSERT_GE(afrinic.size(), 1u);
  EXPECT_GT(afrinic[0].count, 10u);
  if (afrinic.size() >= 2) {
    EXPECT_GT(afrinic[0].count, afrinic[1].count * 3)
        << "paper: 2,014 vs 38 leases";
  }

  // IPXO-like facilitator tops several regions.
  auto ripe_fac = eco.top_facilitators(whois::Rir::kRipe, 1);
  ASSERT_EQ(ripe_fac.size(), 1u);
  EXPECT_EQ(ripe_fac[0].name, "ipxo-mnt");
}

TEST_F(EndToEnd, VerdictsAreConsistentWithTheirEvidence) {
  // Property: every verdict must follow the paper's step-5 decision table
  // when re-derived from the inference's own evidence fields.
  asgraph::AsGraph& graph = *graph_;
  for (const auto& r : *results_) {
    bool leaf_lit = !r.leaf_origins.empty();
    bool is_own_root = r.root_prefix == r.prefix;
    bool root_lit = !is_own_root && !r.root_origins.empty();
    bool related_holder = false, related_root_origin = false;
    for (Asn origin : r.leaf_origins) {
      if (graph.related_to_any(origin, r.holder_asns)) related_holder = true;
      if (!is_own_root && graph.related_to_any(origin, r.root_origins)) {
        related_root_origin = true;
      }
    }
    leasing::InferenceGroup expected;
    if (!leaf_lit && !root_lit) {
      expected = leasing::InferenceGroup::kUnused;
    } else if (!leaf_lit) {
      expected = leasing::InferenceGroup::kAggregatedCustomer;
    } else if (!root_lit) {
      expected = related_holder ? leasing::InferenceGroup::kIspCustomer
                                : leasing::InferenceGroup::kLeasedNoRoot;
    } else {
      expected = related_holder || related_root_origin
                     ? leasing::InferenceGroup::kDelegatedCustomer
                     : leasing::InferenceGroup::kLeasedWithRoot;
    }
    ASSERT_EQ(r.group, expected) << r.prefix.to_string();
  }
}

TEST_F(EndToEnd, BaselineComparisonShape) {
  const whois::WhoisDb* ripe = bundle_->db_for(whois::Rir::kRipe);
  auto prior = leasing::maintainer_baseline(*ripe);
  std::vector<leasing::LeaseInference> ripe_results;
  for (const auto& r : *results_) {
    if (r.rir == whois::Rir::kRipe) ripe_results.push_back(r);
  }
  auto cmp = leasing::compare_methods(ripe_results, prior);
  EXPECT_GT(cmp.both_leased, 0u);
  EXPECT_GT(cmp.baseline_only, 0u) << "baseline catches inactive leases";
  EXPECT_GT(cmp.baseline_only_unused, 0u);
  EXPECT_GT(cmp.ours_only, 0u) << "we catch direct (same-maintainer) leases";
  EXPECT_GT(cmp.neither, cmp.both_leased) << "most leaves are not leased";
}

}  // namespace
}  // namespace sublet
