// Market dynamics — §8 future work ("longitudinally assess IP leasing
// market dynamics"): run the pipeline on two monthly epochs of the same
// world and measure lease churn.
#include <filesystem>

#include <map>

#include "common.h"
#include "leasing/churn.h"
#include "simnet/epoch.h"
#include "whoisdb/diff.h"

using namespace sublet;

namespace {

std::vector<leasing::LeaseInference> classify_dir(const std::string& dir) {
  auto bundle = leasing::load_dataset(dir);
  asgraph::AsGraph graph(&bundle.as_rel, &bundle.as2org);
  return leasing::Pipeline(bundle.rib, graph).classify(bundle.whois);
}

}  // namespace

int main() {
  bench::print_banner("bench_dynamics — month-over-month lease churn",
                      "§8 future work: leasing market dynamics");

  sim::WorldConfig config;
  config.seed = bench::bench_seed();
  config.scale = bench::bench_scale() * 0.5;  // two full worlds: go halves
  sim::World april = sim::build_world(config);
  sim::World may = sim::advance_epoch(april, {.epoch = 1});

  std::string dir_a = "/tmp/sublet-dyn-april";
  std::string dir_b = "/tmp/sublet-dyn-may";
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
  sim::emit_world(april, dir_a);
  sim::emit_world(may, dir_b);

  auto results_april = classify_dir(dir_a);
  auto results_may = classify_dir(dir_b);
  auto churn = leasing::diff_inferences(results_april, results_may);

  TextTable table({"Transition", "Prefixes"});
  table.add_row({"new leases", with_commas(churn.started.size())});
  table.add_row({"ended leases", with_commas(churn.ended.size())});
  table.add_row({"lessee changed", with_commas(churn.lessee_changed.size())});
  table.add_row({"stable", with_commas(churn.stable.size())});
  std::cout << table.to_string();
  std::cout << "\nLease population: " << with_commas(churn.total_before())
            << " -> " << with_commas(churn.total_after())
            << ";  monthly churn rate " << percent(churn.churn_rate())
            << "\n";
  std::cout << "(epoch parameters: 10% of leases end, 12% change lessee, "
               "3.5% of idle space gets leased)\n\n";

  // Registry-side churn: the WHOIS fingerprints of the same month.
  auto bundle_a = leasing::load_dataset(dir_a);
  auto bundle_b = leasing::load_dataset(dir_b);
  std::map<whois::BlockChange::Kind, std::size_t> registry;
  for (const whois::WhoisDb& before : bundle_a.whois) {
    const whois::WhoisDb* after = bundle_b.db_for(before.rir());
    if (!after) continue;
    for (const auto& change : whois::diff_databases(before, *after)) {
      ++registry[change.kind];
    }
  }
  std::cout << "Registry (WHOIS) churn over the same month:\n";
  for (const auto& [kind, count] : registry) {
    std::cout << "    " << change_kind_name(kind) << ": "
              << with_commas(count) << "\n";
  }
  std::cout << "(maintainer changes are the lease-onboarding fingerprint — "
               "blocks moving under broker handles)\n";
  return 0;
}
