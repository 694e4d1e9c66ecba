// Ablation A1 (§7 "Incomplete BGP Data") — how vantage-point coverage
// changes the verdict mix: classify with 1, 2, and all 3 collectors.
// Fewer collectors -> origins go unobserved -> leaves drift toward Unused
// and roots toward dark, shifting group-2/4 leaves into groups 1/3.
#include <filesystem>

#include "common.h"

using namespace sublet;

int main() {
  bench::print_banner(
      "bench_ablation_visibility — collector coverage ablation",
      "§7 'Incomplete BGP Data' limitation");
  std::string dir = bench::ensure_dataset();
  auto bundle = leasing::load_dataset(dir);
  auto truth = sim::GroundTruth::load(dir);
  asgraph::AsGraph graph(&bundle.as_rel, &bundle.as2org);

  // Group the dump files (rib.<collector>.t<day>.mrt) by collector.
  std::map<std::string, std::vector<std::string>> by_collector;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir + "/bgp")) {
    if (entry.path().extension() != ".mrt") continue;
    std::string name = entry.path().filename().string();
    auto first_dot = name.find('.');
    auto second_dot = name.find('.', first_dot + 1);
    by_collector[name.substr(first_dot + 1, second_dot - first_dot - 1)]
        .push_back(entry.path().string());
  }

  TextTable table({"Collectors", "Routed pfx", "Unused", "Leased",
                   "Lease recall vs truth", "Lease precision vs truth"});
  std::size_t use = 0;
  for (auto it = by_collector.begin(); it != by_collector.end(); ++it) {
    ++use;
    bgp::Rib rib;
    auto stop = by_collector.begin();
    std::advance(stop, use);
    for (auto jt = by_collector.begin(); jt != stop; ++jt) {
      for (const std::string& file : jt->second) {
        if (auto err = rib.add_file(file)) {
          std::cerr << err->to_string() << "\n";
          return 1;
        }
      }
    }
    auto results = leasing::Pipeline(rib, graph).classify(bundle.whois);
    auto counts = leasing::Pipeline::count_groups(results);

    std::size_t tp = 0, fp = 0, truth_active = 0;
    for (const auto& r : results) {
      if (!r.leased()) continue;
      const sim::TruthRow* row = truth.find(r.prefix);
      (row && row->is_leased) ? ++tp : ++fp;
    }
    for (const auto& row : truth.rows()) {
      if (row.is_leased && row.active && !row.legacy) ++truth_active;
    }
    table.add_row({std::to_string(use), with_commas(rib.prefix_count()),
                   with_commas(counts.unused), with_commas(counts.leased()),
                   percent(static_cast<double>(tp) / truth_active),
                   percent(static_cast<double>(tp) / (tp + fp))});
  }
  std::cout << table.to_string();
  std::cout << "\nExpectation: more collectors -> fewer Unused verdicts and "
               "higher recall; the union view is what the paper uses "
               "(RouteViews + RIS over 15 days).\n";
  return 0;
}
