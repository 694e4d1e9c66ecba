#include "whoisdb/alloc_tree.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace sublet::whois {

AllocationTree AllocationTree::build(const WhoisDb& db, AllocOptions options,
                                     obs::SpanId parent) {
  obs::ScopedSpan span("alloc_tree.build", parent);
  AllocationTree tree;
  // Collect (prefix, block) pairs in parse order and bulk-build the trie in
  // one freeze() pass. freeze() keeps the last occurrence of a duplicate
  // prefix, which preserves the documented re-registration shadowing rule.
  std::vector<std::pair<Prefix, const InetBlock*>> entries;
  entries.reserve(db.blocks().size());
  for (const InetBlock& block : db.blocks()) {
    if (!block.range.valid()) continue;
    if (!options.include_legacy && block.portability == Portability::kLegacy) {
      ++tree.skipped_legacy_;
      continue;
    }
    for (const Prefix& prefix : block.range.to_prefixes()) {
      if (prefix.length() > options.max_prefix_len) {
        ++tree.skipped_hyper_;
        continue;
      }
      entries.emplace_back(prefix, &block);
    }
  }
  tree.trie_ = PrefixTrie<const InetBlock*>::freeze(std::move(entries));

  for (auto& [prefix, value] : tree.trie_.roots()) {
    tree.roots_.emplace_back(prefix, *value);
  }
  for (auto& [prefix, value] : tree.trie_.leaves()) {
    tree.leaves_.emplace_back(prefix, *value);
  }
  span.add_records(tree.leaves_.size());
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("sublet_alloc_tree_builds_total",
              "Allocation trie freeze passes")
      .add(1);
  reg.gauge("sublet_alloc_tree_leaves",
            "Leaf allocations in the most recent trie build")
      .set(static_cast<std::int64_t>(tree.leaves_.size()));
  return tree;
}

std::optional<AllocEntry> AllocationTree::root_of(const Prefix& prefix) const {
  auto hit = trie_.least_specific_covering(prefix);
  if (!hit) return std::nullopt;
  return AllocEntry{hit->first, *hit->second};
}

const InetBlock* AllocationTree::find(const Prefix& prefix) const {
  const InetBlock* const* entry = trie_.find(prefix);
  return entry ? *entry : nullptr;
}

}  // namespace sublet::whois
