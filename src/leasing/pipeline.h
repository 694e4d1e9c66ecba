// The lease-inference pipeline — paper §5.1-§5.2, steps 1-5.
//
// Inputs: one parsed WHOIS database per RIR, a (multi-collector) BGP RIB,
// and the AS-level relatedness graph. Output: one LeaseInference per leaf
// of each RIR's allocation tree.
//
// Decision procedure per leaf (paper step 5):
//   no leaf origin, no root origin  -> unused
//   no leaf origin, root origin     -> aggregated customer
//   leaf origin, no root origin     -> ISP customer if related to the
//                                      holder's RIR-assigned ASes, else
//                                      LEASED (group 3)
//   both origins                    -> delegated customer if related to the
//                                      holder ASes or the root origin, else
//                                      LEASED (group 4)
#pragma once

#include <span>
#include <string>
#include <vector>

#include "asgraph/as_graph.h"
#include "bgp/rib.h"
#include "leasing/types.h"
#include "whoisdb/alloc_tree.h"
#include "whoisdb/model.h"

namespace sublet::leasing {

struct PipelineOptions {
  whois::AllocOptions alloc;  ///< hyper-specific filter, legacy handling
  /// Step 4's root-origin fallback: when the root prefix has no exact BGP
  /// match, use its least-specific covering prefix (holders aggregating
  /// consecutive portable blocks). Ablation knob.
  bool root_covering_fallback = true;
  /// Worker threads for classify(): 0 = process default (--threads),
  /// 1 = serial. One call builds every database's allocation tree
  /// concurrently, then classifies the leaves of all of them in one
  /// parallel pass; a leaf only reads the RIB, the AS graph, its WhoisDb
  /// and its tree, and the output order (database order, then leaf
  /// address order) is byte-identical across thread counts.
  unsigned threads = 0;
};

/// Per-RIR classification summary (one Table 1 column).
struct GroupCounts {
  std::size_t unused = 0;
  std::size_t aggregated_customer = 0;
  std::size_t isp_customer = 0;
  std::size_t leased_g3 = 0;
  std::size_t delegated_customer = 0;
  std::size_t leased_g4 = 0;

  std::size_t leased() const { return leased_g3 + leased_g4; }
  std::size_t total() const {
    return unused + aggregated_customer + isp_customer + leased_g3 +
           delegated_customer + leased_g4;
  }
  void add(InferenceGroup group);
};

class Pipeline {
 public:
  /// The referenced inputs must outlive the pipeline.
  Pipeline(const bgp::Rib& rib, const asgraph::AsGraph& graph,
           PipelineOptions options = {});

  /// Classify every non-portable leaf of each database's allocation tree.
  /// Results come in database order, then leaf address order within one
  /// database: the concatenation of classify(db) over `dbs`.
  std::vector<LeaseInference> classify(
      std::span<const whois::WhoisDb> dbs) const;
  /// One database: classify(std::span(&db, 1)).
  std::vector<LeaseInference> classify(const whois::WhoisDb& db) const;

  /// Classify a single leaf given its allocation tree (used by explain and
  /// the incremental API).
  LeaseInference classify_leaf(const whois::AllocEntry& leaf,
                               const whois::AllocationTree& tree,
                               const whois::WhoisDb& db) const;

  /// Figure-2-style narration of why a prefix received its verdict.
  /// `tree` is `db`'s allocation tree; a caller explaining many prefixes
  /// builds it once.
  std::string explain(const Prefix& prefix, const whois::AllocationTree& tree,
                      const whois::WhoisDb& db) const;

  static GroupCounts count_groups(const std::vector<LeaseInference>& results);

 private:
  const bgp::Rib& rib_;
  const asgraph::AsGraph& graph_;
  PipelineOptions options_;
};

}  // namespace sublet::leasing
