// audit_prefix: Figure-2-style walkthrough of why a prefix is (not) a
// lease — the operator-facing "explain this verdict" tool.
//
//   ./audit_prefix [dataset-dir] [prefix ...]
//
// Without explicit prefixes, it audits one inferred lease and one ISP
// customer so the contrast is visible.
#include <iostream>

#include "asgraph/as_graph.h"
#include "example_util.h"
#include "leasing/dataset.h"
#include "leasing/pipeline.h"

using namespace sublet;

int main(int argc, char** argv) {
  std::string dir = examples::dataset_dir(argc, argv);
  leasing::DatasetBundle bundle = leasing::load_dataset(dir);
  asgraph::AsGraph graph(&bundle.as_rel, &bundle.as2org);
  leasing::Pipeline pipeline(bundle.rib, graph);

  std::vector<Prefix> targets;
  for (int i = 2; i < argc; ++i) {
    if (auto prefix = Prefix::parse(argv[i])) {
      targets.push_back(*prefix);
    } else {
      std::cerr << "skipping unparseable prefix '" << argv[i] << "'\n";
    }
  }

  if (targets.empty()) {
    // Pick demonstration prefixes: one lease, one customer.
    for (const whois::WhoisDb& db : bundle.whois) {
      const Prefix* lease = nullptr;
      const Prefix* customer = nullptr;
      auto results = pipeline.classify(db);
      for (const auto& r : results) {
        if (!lease && r.leased()) lease = &r.prefix;
        if (!customer && r.group == leasing::InferenceGroup::kIspCustomer) {
          customer = &r.prefix;
        }
        if (lease && customer) break;
      }
      if (lease) targets.push_back(*lease);
      if (customer) targets.push_back(*customer);
      if (!targets.empty()) break;
    }
  }

  std::vector<whois::AllocationTree> trees;
  for (const whois::WhoisDb& db : bundle.whois) {
    trees.push_back(whois::AllocationTree::build(db));
  }
  for (const Prefix& prefix : targets) {
    // Find the RIR whose allocation tree contains the prefix.
    bool found = false;
    for (std::size_t r = 0; r < bundle.whois.size(); ++r) {
      if (!trees[r].root_of(prefix)) continue;
      std::cout << pipeline.explain(prefix, trees[r], bundle.whois[r]) << "\n";
      found = true;
      break;
    }
    if (!found) {
      std::cout << prefix.to_string()
                << ": not found in any RIR's allocation tree\n\n";
    }
  }
  return 0;
}
