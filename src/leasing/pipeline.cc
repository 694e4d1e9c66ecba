#include "leasing/pipeline.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/log.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace sublet::leasing {

namespace {
// Shared "no origins" placeholder for leaves that are their own root. At
// namespace scope (not function-local static) so classify_leaf — the
// per-leaf hot path on every classification thread — skips the thread-safe
// initialization guard a local static would re-check on each call.
const std::vector<Asn> kNoOrigins;

/// Per-group classification counters, indexed by enumerator order.
obs::Counter& classify_counter(InferenceGroup group) {
  static std::array<obs::Counter*, kAllInferenceGroups.size()> counters = [] {
    std::array<obs::Counter*, kAllInferenceGroups.size()> out{};
    auto& reg = obs::MetricsRegistry::global();
    for (std::size_t i = 0; i < kAllInferenceGroups.size(); ++i) {
      out[i] = &reg.counter(
          obs::labeled("sublet_classify_leaves_total", "group",
                       group_name(kAllInferenceGroups[i])),
          "Classified leaf allocations by inference group");
    }
    return out;
  }();
  return *counters[static_cast<std::size_t>(group)];
}

/// Faults in, writable, the whole pages inside [begin, end) without
/// writing to them. Where MADV_POPULATE_WRITE is missing (Linux < 5.14)
/// this does nothing and the first write faults the pages in instead.
void populate_pages(const void* begin, const void* end) {
#ifdef MADV_POPULATE_WRITE
  static const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const std::uintptr_t first =
      (reinterpret_cast<std::uintptr_t>(begin) + page - 1) & ~(page - 1);
  const std::uintptr_t last = reinterpret_cast<std::uintptr_t>(end) & ~(page - 1);
  if (first < last) {
    madvise(reinterpret_cast<void*>(first), last - first, MADV_POPULATE_WRITE);
  }
#else
  (void)begin;
  (void)end;
#endif
}

/// Register the family at program start so a process that never classifies
/// (e.g. `sublet serve`) still exports it at zero.
const bool g_classify_metrics_registered = [] {
  classify_counter(InferenceGroup::kUnused);
  return true;
}();
}  // namespace

void GroupCounts::add(InferenceGroup group) {
  switch (group) {
    case InferenceGroup::kUnused: ++unused; break;
    case InferenceGroup::kAggregatedCustomer: ++aggregated_customer; break;
    case InferenceGroup::kIspCustomer: ++isp_customer; break;
    case InferenceGroup::kLeasedNoRoot: ++leased_g3; break;
    case InferenceGroup::kDelegatedCustomer: ++delegated_customer; break;
    case InferenceGroup::kLeasedWithRoot: ++leased_g4; break;
  }
}

Pipeline::Pipeline(const bgp::Rib& rib, const asgraph::AsGraph& graph,
                   PipelineOptions options)
    : rib_(rib), graph_(graph), options_(options) {}

LeaseInference Pipeline::classify_leaf(const whois::AllocEntry& leaf,
                                       const whois::AllocationTree& tree,
                                       const whois::WhoisDb& db) const {
  LeaseInference out;
  out.prefix = leaf.first;
  out.rir = db.rir();
  out.netname = leaf.second->netname;
  out.leaf_maintainers = leaf.second->maintainers;

  // Root of the leaf in the allocation tree (paper step 2).
  auto root = tree.root_of(leaf.first);
  if (root) {
    out.root_prefix = root->first;
    out.holder_org = root->second->org_id;
    out.root_maintainers = root->second->maintainers;
    // Step 3: the holder's RIR-assigned ASNs via the org join.
    if (!out.holder_org.empty()) {
      out.holder_asns = db.asns_for_org(out.holder_org);
    }
  }

  // Step 4: BGP origins. Leaves require an exact match; roots fall back to
  // the least-specific covering prefix (aggregated portable blocks).
  if (const bgp::RouteInfo* info = rib_.exact(leaf.first)) {
    out.leaf_origins = info->origins;
  }
  if (root) {
    if (const bgp::RouteInfo* info = rib_.exact(root->first)) {
      out.root_origins = info->origins;
    } else if (options_.root_covering_fallback) {
      if (auto hit = rib_.least_specific_covering(root->first)) {
        out.root_origins = hit->second->origins;
      }
    }
  }
  // A leaf that is its own root has no separate parent origination: treat
  // the root side as unoriginated so the leaf is judged on its own origin.
  bool leaf_is_root = root && root->first == leaf.first;
  const std::vector<Asn>& root_origins =
      leaf_is_root ? kNoOrigins : out.root_origins;

  // Step 5: the four-way decision.
  bool leaf_lit = !out.leaf_origins.empty();
  bool root_lit = !root_origins.empty();
  if (!leaf_lit && !root_lit) {
    out.group = InferenceGroup::kUnused;
  } else if (!leaf_lit && root_lit) {
    out.group = InferenceGroup::kAggregatedCustomer;
  } else if (leaf_lit && !root_lit) {
    bool related = false;
    for (Asn origin : out.leaf_origins) {
      if (graph_.related_to_any(origin, out.holder_asns)) {
        related = true;
        break;
      }
    }
    out.group = related ? InferenceGroup::kIspCustomer
                        : InferenceGroup::kLeasedNoRoot;
  } else {
    bool related = false;
    for (Asn origin : out.leaf_origins) {
      if (graph_.related_to_any(origin, out.holder_asns) ||
          graph_.related_to_any(origin, root_origins)) {
        related = true;
        break;
      }
    }
    out.group = related ? InferenceGroup::kDelegatedCustomer
                        : InferenceGroup::kLeasedWithRoot;
  }
  return out;
}

std::vector<LeaseInference> Pipeline::classify(
    std::span<const whois::WhoisDb> dbs) const {
  obs::ScopedSpan span("classify");
  // The trees are independent: build them all at once, each task also
  // listing its tree's lease candidates. Pool threads have no open span of
  // their own, so hand them this one as the parent.
  const obs::SpanId span_id = span.id();
  struct Job {
    const whois::AllocEntry* leaf;
    std::size_t db;
  };
  std::vector<whois::AllocationTree> trees(dbs.size());
  std::vector<std::vector<Job>> jobs_by_db(dbs.size());
  {
    // No more workers than trees, and at least one (0 means "default").
    par::TaskGroup group(static_cast<unsigned>(std::clamp<std::size_t>(
        dbs.size(), 1, par::resolve_threads(options_.threads))));
    for (std::size_t i = 0; i < dbs.size(); ++i) {
      group.run([&, i] {
        trees[i] =
            whois::AllocationTree::build(dbs[i], options_.alloc, span_id);
        for (const whois::AllocEntry& leaf : trees[i].leaves()) {
          // A leaf that is also a root is portable space with no
          // sub-allocation: there is no provider/customer split to judge,
          // so it is not a lease candidate (paper only classifies
          // non-portable leaves).
          if (leaf.second->portability == whois::Portability::kPortable) {
            continue;
          }
          jobs_by_db[i].push_back({&leaf, i});
        }
      });
    }
    group.wait();
  }

  // One job list over every tree, in database order then leaf address
  // order, so one parallel pass writes each result into its final slot.
  std::size_t total = 0;
  for (const std::vector<Job>& part : jobs_by_db) total += part.size();
  std::vector<Job> jobs;
  jobs.reserve(total);
  for (std::size_t i = 0; i < dbs.size(); ++i) {
    const whois::AllocationTree& tree = trees[i];
    SUBLET_LOG(kInfo) << rir_name(dbs[i].rir()) << ": " << tree.roots().size()
                      << " roots, " << tree.leaves().size() << " leaves ("
                      << tree.skipped_hyper_specific() << " hyper-specific, "
                      << tree.skipped_legacy() << " legacy skipped)";
    jobs.insert(jobs.end(), jobs_by_db[i].begin(), jobs_by_db[i].end());
  }
  // First touch in parallel: value-initializing the 30 MB result vector of
  // a scale-2 run on one thread spent 13-18 ms in page faults while three
  // cores idled. Each chunk faults in its own part of the reserved storage,
  // and the vector is then constructed on resident pages.
  std::vector<LeaseInference> results;
  results.reserve(jobs.size());
  const std::size_t chunk = par::recommended_chunk(
      jobs.size(), par::resolve_threads(options_.threads));
  par::parallel_for(
      jobs.size(), chunk,
      [&](std::size_t begin, std::size_t end) {
        populate_pages(results.data() + begin, results.data() + end);
      },
      options_.threads);
  results.resize(jobs.size());
  // Each leaf only reads rib_/graph_/its db and tree, and writes only its
  // own slot, so results are byte-identical to a serial run at any thread
  // count.
  par::parallel_for(
      jobs.size(), chunk,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const Job& job = jobs[i];
          results[i] = classify_leaf(*job.leaf, trees[job.db], dbs[job.db]);
        }
      },
      options_.threads);
  // One aggregation pass instead of a relaxed add per leaf on the hot path.
  std::array<std::uint64_t, kAllInferenceGroups.size()> by_group{};
  for (const LeaseInference& inference : results) {
    ++by_group[static_cast<std::size_t>(inference.group)];
  }
  for (std::size_t i = 0; i < kAllInferenceGroups.size(); ++i) {
    if (by_group[i] != 0) classify_counter(kAllInferenceGroups[i]).add(by_group[i]);
  }
  span.add_records(results.size());
  return results;
}

std::vector<LeaseInference> Pipeline::classify(const whois::WhoisDb& db) const {
  return classify(std::span<const whois::WhoisDb>(&db, 1));
}

GroupCounts Pipeline::count_groups(const std::vector<LeaseInference>& results) {
  GroupCounts counts;
  for (const auto& inference : results) counts.add(inference.group);
  return counts;
}

namespace {
std::string asn_list(const std::vector<Asn>& asns) {
  if (asns.empty()) return "(none)";
  std::vector<std::string> parts;
  parts.reserve(asns.size());
  for (Asn asn : asns) parts.push_back(asn.to_string());
  return join(parts, ", ");
}
}  // namespace

std::string Pipeline::explain(const Prefix& prefix,
                              const whois::AllocationTree& tree,
                              const whois::WhoisDb& db) const {
  const whois::InetBlock* block = tree.find(prefix);
  if (!block) {
    return prefix.to_string() + ": not present in the " +
           std::string(rir_name(db.rir())) + " allocation tree\n";
  }
  auto inference = classify_leaf({prefix, block}, tree, db);

  std::ostringstream out;
  out << "Inference walkthrough for " << prefix.to_string() << " ("
      << rir_name(db.rir()) << ")\n";
  out << "  [1] WHOIS leaf: netname=" << (block->netname.empty() ? "-" : block->netname)
      << " status='" << block->status << "' ("
      << portability_name(block->portability) << ")\n";
  out << "      maintainers (facilitator): "
      << (inference.leaf_maintainers.empty()
              ? "(none)"
              : join(inference.leaf_maintainers, ", "))
      << "\n";
  out << "  [2] allocation tree root: " << inference.root_prefix.to_string()
      << " held by org " << (inference.holder_org.empty() ? "(none)" : inference.holder_org)
      << "\n";
  out << "  [3] holder's RIR-assigned ASNs: " << asn_list(inference.holder_asns)
      << "\n";
  out << "  [4] BGP origins: leaf=" << asn_list(inference.leaf_origins)
      << " root=" << asn_list(inference.root_origins) << "\n";
  out << "  [5] verdict: group " << group_number(inference.group) << " — "
      << group_name(inference.group)
      << (inference.leased() ? "  ** LEASED **" : "") << "\n";
  return out.str();
}

}  // namespace sublet::leasing
