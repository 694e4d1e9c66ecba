// abuse_monitor: the threat-intel scenario from the paper's motivation —
// cross-reference inferred leases with the Spamhaus ASN-DROP list, the
// serial-hijacker list, and RPKI ROAs, and emit a watchlist of leased
// prefixes in abusive hands (CSV on stdout).
//
//   ./abuse_monitor [dataset-dir] > watchlist.csv
#include <iostream>

#include "asgraph/as_graph.h"
#include "example_util.h"
#include "leasing/abuse_analysis.h"
#include "leasing/dataset.h"
#include "leasing/pipeline.h"
#include "util/csv.h"

using namespace sublet;

int main(int argc, char** argv) {
  std::string dir = examples::dataset_dir(argc, argv);
  leasing::DatasetBundle bundle = leasing::load_dataset(dir);
  asgraph::AsGraph graph(&bundle.as_rel, &bundle.as2org);
  leasing::Pipeline pipeline(bundle.rib, graph);

  std::vector<leasing::LeaseInference> results =
      pipeline.classify(bundle.whois);

  const rpki::VrpSet* vrps = bundle.current_vrps();
  CsvWriter csv(std::cout);
  csv.write_row({"prefix", "rir", "origin_asns", "holder_org", "facilitator",
                 "drop_listed", "serial_hijacker", "rpki"});

  std::size_t flagged = 0, leases = 0;
  for (const auto& r : results) {
    if (!r.leased()) continue;
    ++leases;
    bool drop = false, hijacker = false;
    for (Asn origin : r.leaf_origins) {
      drop |= bundle.drop.contains(origin);
      hijacker |= bundle.hijackers.contains(origin);
    }
    if (!drop && !hijacker) continue;
    ++flagged;

    std::string origins;
    for (Asn origin : r.leaf_origins) {
      if (!origins.empty()) origins += ' ';
      origins += origin.to_string();
    }
    std::string rpki_state = "no-data";
    if (vrps && !r.leaf_origins.empty()) {
      rpki_state = std::string(
          validity_name(vrps->validate(r.prefix, r.leaf_origins.front())));
    }
    csv.write_row({r.prefix.to_string(), std::string(rir_name(r.rir)),
                   origins, r.holder_org,
                   r.leaf_maintainers.empty() ? "" : r.leaf_maintainers[0],
                   drop ? "1" : "0", hijacker ? "1" : "0", rpki_state});
  }

  std::cerr << "[abuse_monitor] " << flagged << " of " << leases
            << " inferred leases originate from blocklisted ASes\n";
  std::cerr << "[abuse_monitor] note: RPKI 'valid' on an abusive lease is "
               "the paper's §6.4 warning — leasing lets attackers obtain "
               "legitimate ROAs\n";
  return 0;
}
