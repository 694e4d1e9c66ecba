// Address allocation tree — paper step 2.
//
// All non-legacy address blocks of one RIR are converted from ranges to
// CIDR prefixes (one tree node per covering prefix), hyper-specifics longer
// than /24 are dropped, and the resulting prefix forest exposes its roots
// (portable space allocated by the RIR) and leaves (the most specific
// sub-allocations — the lease candidates).
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "netbase/prefix_trie.h"
#include "obs/trace.h"
#include "whoisdb/model.h"

namespace sublet::whois {

struct AllocOptions {
  /// Prefixes longer than this are hyper-specifics for internal
  /// infrastructure use and are excluded (§5.1; Sediqi et al. 2022).
  int max_prefix_len = 24;
  /// Legacy space has no defined portability and is excluded by default.
  bool include_legacy = false;
};

/// One entry of the allocation forest. `block` points into the WhoisDb the
/// tree was built from — the tree must not outlive that database.
using AllocEntry = std::pair<Prefix, const InetBlock*>;

class AllocationTree {
 public:
  /// Build from a parsed database. Blocks whose range is invalid are
  /// skipped. When two blocks map to the same prefix the more recently
  /// parsed one wins (mirrors databases where a re-registration shadows a
  /// stale object). The build's trace span nests under `parent`: by
  /// default the calling thread's open span, which a pool thread lacks.
  static AllocationTree build(const WhoisDb& db, AllocOptions options = {},
                              obs::SpanId parent = obs::Tracer::current());

  /// Structural roots: entries with no covering entry. Paper: portable
  /// blocks directly allocated by the RIR.
  const std::vector<AllocEntry>& roots() const { return roots_; }

  /// Structural leaves: entries with no covered entry. Paper: the
  /// sub-allocations whose lease status we classify.
  const std::vector<AllocEntry>& leaves() const { return leaves_; }

  /// The root entry covering `prefix` (the least-specific covering entry),
  /// or nullopt for prefixes outside the forest.
  std::optional<AllocEntry> root_of(const Prefix& prefix) const;

  /// Exact-prefix lookup.
  const InetBlock* find(const Prefix& prefix) const;

  /// Blocks excluded by the hyper-specific filter / legacy rule, for
  /// accounting and the A3 ablation.
  std::size_t skipped_hyper_specific() const { return skipped_hyper_; }
  std::size_t skipped_legacy() const { return skipped_legacy_; }

  std::size_t size() const { return trie_.size(); }

 private:
  PrefixTrie<const InetBlock*> trie_;
  std::vector<AllocEntry> roots_;
  std::vector<AllocEntry> leaves_;
  std::size_t skipped_hyper_ = 0;
  std::size_t skipped_legacy_ = 0;
};

}  // namespace sublet::whois
