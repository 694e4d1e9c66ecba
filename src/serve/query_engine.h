// In-memory query engine over a loaded snapshot.
//
// Wraps the adopted leaf-prefix trie and answers the lookups the wire
// protocol exposes: exact match, longest-prefix match, and batched LPM,
// each returning the record index whose full inference (evidence included)
// the caller can materialize or render as JSON. The adopted trie carries
// the DIR-24-8 stride table, so single lookups take one or two array
// loads and lookup_batch() streams software-prefetched batches. The STATS
// aggregate is computed once, when the engine is built (or patched from
// its base epoch's), and rendered as a constant on every request.
// Everything is const after construction — one engine is shared by every
// server thread without locks.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "leasing/types.h"
#include "netbase/prefix_trie.h"
#include "snapshot/snapshot.h"
#include "util/expected.h"
#include "whoisdb/rir.h"

namespace sublet::serve {

class QueryEngine {
 public:
  /// Sentinel written by lookup_batch() for addresses no record covers.
  static constexpr std::uint32_t kNoRecord =
      PrefixTrie<std::uint32_t>::kNoEntry;

  /// Build from a loaded snapshot (adopts the trie arena, builds the
  /// stride table unless `stride` is kOff, and computes the STATS
  /// aggregate). The snapshot must outlive the engine; Error if the trie
  /// section is corrupt.
  static Expected<QueryEngine> create(const snapshot::Snapshot* snap,
                                      TrieStride stride = TrieStride::kBuild);

  /// Build from a snapshot plus a caller-built trie (leaf prefix -> record
  /// index) by PATCHING `base`'s aggregate instead of recounting every row
  /// — the catalog's delta-apply path: a parts snapshot has no trie arena,
  /// and almost every row is unchanged from the base epoch. `surviving`
  /// maps each new row in [0, surviving->size()) to the base row it was
  /// compacted from; nullopt means no row was removed and the base rows
  /// keep their indices. `patched` lists new row indices whose contents
  /// changed in place; rows beyond the surviving region are appends.
  /// Removed and patched base rows are subtracted (read from
  /// base.snapshot(), whose pools they index), patched and appended new
  /// rows added, and the leaf-origin ranking redone — O(changed rows), and
  /// field-for-field identical to a full create() over the same snapshot.
  /// The trie arrives behind a shared_ptr: an in-place-only delta leaves
  /// the base trie bit-identical (structure, values, jump, stride), so the
  /// catalog shares it across epochs instead of copying the arena.
  static Expected<QueryEngine> create_patched(
      const snapshot::Snapshot* snap,
      std::shared_ptr<const PrefixTrie<std::uint32_t>> trie,
      const QueryEngine& base,
      std::optional<std::span<const std::uint32_t>> surviving,
      std::span<const std::uint32_t> patched);

  /// Record stored exactly at `prefix`.
  std::optional<std::uint32_t> exact(const Prefix& prefix) const {
    const std::uint32_t* idx = trie_->find(prefix);
    if (idx == nullptr) return std::nullopt;
    return *idx;
  }

  /// Most specific record covering `prefix` (longest-prefix match;
  /// includes an exact hit). Returns the matched leaf and record index.
  std::optional<std::pair<Prefix, std::uint32_t>> longest_match(
      const Prefix& prefix) const {
    auto hit = trie_->most_specific_covering(prefix);
    if (!hit) return std::nullopt;
    return std::pair<Prefix, std::uint32_t>{hit->first, *hit->second};
  }

  /// Batched longest-prefix match over /32 addresses (host-order values):
  /// writes one record index (or kNoRecord) per address into `out`.
  /// Allocation-free — the MLPM handler reuses its scratch buffers — and
  /// routed through the stride table's prefetched two-pass lookup.
  /// Requires out.size() >= addrs.size().
  void lookup_batch(std::span<const std::uint32_t> addrs,
                    std::span<std::uint32_t> out) const;

  /// Full inference record for `idx`, identical to the pipeline's output.
  leasing::LeaseInference materialize(std::uint32_t idx) const {
    return snap_->materialize(idx);
  }

  /// Fixed-size answer for the binary frame protocol: the matched leaf and
  /// the classification bits a batch consumer needs, read straight off the
  /// 60-byte RecordRow — no string pool touches, no JSON, no allocation.
  struct Brief {
    std::uint32_t prefix_addr = 0;  ///< leaf network bits, host order
    std::uint8_t prefix_len = 0;
    std::uint8_t group = 0;  ///< raw leasing::InferenceGroup value
    bool leased = false;
  };
  Brief brief(std::uint32_t idx) const {
    const snapshot::RecordRow& row = snap_->record(idx);
    return Brief{row.prefix_key, row.prefix_len, row.group,
                 leasing::is_leased(
                     static_cast<leasing::InferenceGroup>(row.group))};
  }

  /// One-line JSON rendering of record `idx` (the wire response body).
  std::string record_json(std::uint32_t idx) const;

  // ---- STATS aggregate -------------------------------------------------

  struct GroupAggregate {
    std::uint64_t records = 0;
    std::uint64_t addresses = 0;  ///< sum of 2^(32-len) over the records
    bool operator==(const GroupAggregate&) const = default;
  };

  /// Whole-snapshot totals the STATS verb reports: per-group record and
  /// address counts, per-RIR record counts, leased totals, and record
  /// counts for the most common leaf-origin ASNs.
  struct SnapshotAggregate {
    std::array<GroupAggregate, leasing::kAllInferenceGroups.size()> groups{};
    std::array<std::uint64_t, whois::kAllRirs.size()> rir_records{};
    std::uint64_t leased_records = 0;
    std::uint64_t leased_addresses = 0;
    std::vector<std::pair<std::uint32_t, std::uint64_t>>
        top_origins;  ///< (asn, records), most records first
    bool operator==(const SnapshotAggregate&) const = default;
  };

  /// The aggregate, computed once when the engine was built.
  const SnapshotAggregate& aggregate() const { return agg_; }

  /// One-line JSON for the STATS verb's "snapshot" section: the aggregate
  /// plus the trie memory breakdown.
  std::string snapshot_stats_json() const;

  /// Trie footprint by structure (nodes, values, jump, stride levels).
  PrefixTrie<std::uint32_t>::MemoryBreakdown trie_memory() const {
    return trie_->memory_breakdown();
  }

  const snapshot::Snapshot& snapshot() const { return *snap_; }
  /// The adopted trie (read-only) — the catalog clones its structural core
  /// to apply the next epoch's delta on top.
  const PrefixTrie<std::uint32_t>& trie() const { return *trie_; }
  /// Shared handle to the trie: an epoch materialized from an
  /// in-place-only delta holds the very same arena as its base
  /// (docs/TIMETRAVEL.md), so N cached epochs need not mean N tries.
  std::shared_ptr<const PrefixTrie<std::uint32_t>> shared_trie() const {
    return trie_;
  }
  std::size_t size() const { return trie_->size(); }

 private:
  QueryEngine(const snapshot::Snapshot* snap,
              std::shared_ptr<const PrefixTrie<std::uint32_t>> trie)
      : snap_(snap), trie_(std::move(trie)) {}

  /// Add (`sign` = +1) or subtract (-1) one row's contribution to agg_
  /// and origin_counts_. `snap` is the snapshot whose pools the row indexes.
  void tally(const snapshot::Snapshot& snap, const snapshot::RecordRow& row,
             int sign);
  /// Rank origin_counts_ into agg_.top_origins (ties toward smaller ASN).
  void rank_origins();

  const snapshot::Snapshot* snap_;
  std::shared_ptr<const PrefixTrie<std::uint32_t>> trie_;

  SnapshotAggregate agg_;
  // Per-origin record counts behind the ranking, kept so create_patched()
  // can adjust them incrementally instead of recounting every row.
  std::unordered_map<std::uint32_t, std::uint64_t> origin_counts_;
};

}  // namespace sublet::serve
