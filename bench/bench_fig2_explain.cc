// Figure 2 — the inference walkthrough of a leased prefix: the allocation
// tree, the holder's RIR-assigned ASN, the BGP origins, and the verdict.
#include "common.h"

using namespace sublet;

int main() {
  bench::print_banner("bench_fig2_explain — single-prefix inference diagram",
                      "Figure 2 (§5.1-§5.2)");
  bench::FullRun run;

  // Pick one group-4 lease (the figure's case: root and leaf both
  // originated) and one group-3 lease, and narrate both.
  const leasing::LeaseInference* g4 = nullptr;
  const leasing::LeaseInference* g3 = nullptr;
  for (const auto& r : run.results) {
    if (r.rir != whois::Rir::kRipe) continue;
    if (!g4 && r.group == leasing::InferenceGroup::kLeasedWithRoot) g4 = &r;
    if (!g3 && r.group == leasing::InferenceGroup::kLeasedNoRoot) g3 = &r;
    if (g3 && g4) break;
  }

  const whois::WhoisDb* ripe = run.bundle.db_for(whois::Rir::kRipe);
  const auto tree = whois::AllocationTree::build(*ripe);
  leasing::Pipeline pipeline(run.bundle.rib, run.graph);
  for (const auto* example : {g4, g3}) {
    if (!example) continue;
    std::cout << pipeline.explain(example->prefix, tree, *ripe) << "\n";
  }

  // And one non-lease for contrast.
  for (const auto& r : run.results) {
    if (r.rir == whois::Rir::kRipe &&
        r.group == leasing::InferenceGroup::kIspCustomer) {
      std::cout << pipeline.explain(r.prefix, tree, *ripe) << "\n";
      break;
    }
  }
  return 0;
}
