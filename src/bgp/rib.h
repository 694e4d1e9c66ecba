// Multi-collector BGP RIB view — paper step 4's query surface.
//
// Routes from any number of MRT snapshots (RouteViews + RIS collectors over
// the 15-day window) are unioned into one prefix-indexed view that answers:
// "what origin ASes were observed for this exact prefix?" and "what is the
// least-specific covering prefix and its origins?" (the root-node fallback
// for holders who aggregate consecutive portable blocks).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "mrt/rib_file.h"
#include "netbase/asn.h"
#include "netbase/prefix_trie.h"

namespace sublet::bgp {

/// Observations accumulated for one prefix.
struct RouteInfo {
  std::vector<Asn> origins;  ///< sorted and unique
  std::uint32_t peer_observations = 0;  ///< RIB entries seen (visibility)

  bool originated_by(Asn asn) const;
};

/// Build model: every add_* call only appends observations (one
/// mrt::OriginRun per call); freeze() is the one build path. It merges the
/// pending runs and the table an earlier freeze built by prefix, dedups
/// each prefix's origins, sums its entry counts and bulk-builds the trie.
/// A prefix seen only with empty AS_PATHs, or in a record with no entries,
/// is present with no origins.
class Rib {
 public:
  Rib() = default;
  Rib(Rib&& other) noexcept;
  Rib& operator=(Rib&& other) noexcept;

  /// Add one decoded MRT snapshot. Origin = last AS of each entry's
  /// AS_PATH (every member for a trailing AS_SET). Call once per collector
  /// file; duplicates union cleanly.
  void add_snapshot(const mrt::RibSnapshot& snapshot);

  /// Add the origin observations of one RIB file (mrt::read_rib_origins).
  void add_origins(mrt::OriginRun run);

  /// Read an MRT RIB file from disk and add its origins. Returns an Error
  /// for unreadable/corrupt files, which then add nothing.
  std::optional<Error> add_file(const std::string& path);

  /// Record a single observation (used by tests and the simulator's
  /// in-memory path).
  void add_route(const Prefix& prefix, Asn origin);

  /// Build the table from everything added so far. Queries freeze lazily
  /// (and thread-safely) on first use, so calling this is optional — but
  /// doing it once after the bulk load keeps the cost out of the first
  /// query and off the classification threads.
  void freeze();

  /// Origin ASes observed for exactly `prefix`; nullptr if never seen.
  const RouteInfo* exact(const Prefix& prefix) const;

  /// Least-specific covering prefix with its origins (includes exact).
  std::optional<std::pair<Prefix, const RouteInfo*>> least_specific_covering(
      const Prefix& prefix) const;

  /// Most-specific covering prefix (longest match, includes exact).
  std::optional<std::pair<Prefix, const RouteInfo*>> most_specific_covering(
      const Prefix& prefix) const;

  /// Number of distinct prefixes in the table.
  std::size_t prefix_count() const {
    ensure_finalized();
    return trie_.size();
  }

  /// Total routed address space: size in addresses of the union of all
  /// prefixes (covering prefixes counted once).
  std::uint64_t routed_address_space() const;

  /// Visit every (prefix, info) in address order.
  void visit(
      const std::function<void(const Prefix&, const RouteInfo&)>& fn) const;

  /// All distinct origin ASes in the table.
  std::set<Asn> all_origins() const;

 private:
  /// Freeze on first query if an add_* call left observations pending.
  /// Double-checked so the steady state (shared read-only Rib across
  /// classification threads) is a single relaxed-ish atomic load.
  void ensure_finalized() const;

  PrefixTrie<RouteInfo> trie_;
  std::vector<mrt::OriginRun> pending_;
  mutable std::atomic<bool> finalized_{true};
  mutable std::mutex finalize_mu_;
};

}  // namespace sublet::bgp
