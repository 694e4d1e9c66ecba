// market_report: the analyst scenario — a per-RIR view of the leasing
// market: volumes, the dominant holders and facilitators, originator
// concentration, and lease-history reconstruction for a sampled prefix.
//
//   ./market_report [dataset-dir]
#include <iostream>
#include <set>

#include "asgraph/as_graph.h"
#include "example_util.h"
#include "leasing/dataset.h"
#include "leasing/ecosystem.h"
#include "leasing/pipeline.h"
#include "leasing/timeline.h"
#include "simnet/timeline_scenario.h"
#include "util/table.h"

using namespace sublet;

int main(int argc, char** argv) {
  std::string dir = examples::dataset_dir(argc, argv);
  leasing::DatasetBundle bundle = leasing::load_dataset(dir);
  asgraph::AsGraph graph(&bundle.as_rel, &bundle.as2org);
  leasing::Pipeline pipeline(bundle.rib, graph);

  std::vector<leasing::LeaseInference> results =
      pipeline.classify(bundle.whois);
  leasing::Ecosystem eco(results, &bundle.as2org);

  std::cout << "=== IP leasing market report ===\n\n";
  for (whois::Rir rir : whois::kAllRirs) {
    auto rir_results = std::vector<leasing::LeaseInference>();
    for (const auto& r : results) {
      if (r.rir == rir) rir_results.push_back(r);
    }
    auto counts = leasing::Pipeline::count_groups(rir_results);
    std::cout << rir_name(rir) << ": " << with_commas(counts.leased())
              << " leases across " << with_commas(counts.total())
              << " sub-allocations\n";

    auto holders = eco.top_holders(rir, 3);
    for (const auto& h : holders) {
      std::string name = h.name;
      if (const whois::WhoisDb* db = bundle.db_for(rir)) {
        if (const whois::OrgRec* org = db->org(h.name)) {
          if (!org->name.empty()) name = org->name;
        }
      }
      std::cout << "    holder      " << name << " (" << h.count
                << " leases)\n";
    }
    for (const auto& f : eco.top_facilitators(rir, 2)) {
      std::cout << "    facilitator " << f.name << " (" << f.count
                << " leases)\n";
    }
    std::cout << "\n";
  }

  std::cout << "Global top originators of leased space:\n";
  for (const auto& o : eco.top_originators(5)) {
    std::cout << "    " << o.name << " — " << o.count << " prefixes\n";
  }

  // Lease-history reconstruction (the Figure 3 workflow) for the scripted
  // scenario prefix — with real data this would consume the RPKI archive
  // plus dated RIB snapshots for any prefix in the report.
  std::cout << "\nLease history of a facilitator-managed prefix:\n";
  auto scenario = sim::build_timeline_scenario();
  auto events = leasing::LeaseTimeline::collect(
      scenario.prefix, scenario.archive, scenario.bgp_history,
      scenario.start, scenario.end);
  for (const auto& period : leasing::LeaseTimeline::segment(events)) {
    std::cout << "    " << scenario.prefix.to_string() << "  "
              << (period.is_as0_gap() ? "quarantined (AS0)"
                                      : "leased to " + period.asn.to_string())
              << "  [" << period.start << " .. " << period.end << "]\n";
  }
  return 0;
}
