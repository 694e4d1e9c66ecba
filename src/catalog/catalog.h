// Multi-epoch snapshot catalog: time-travel serving (docs/TIMETRAVEL.md).
//
// A catalog directory holds one full snapshot per chain anchor plus delta
// snapshots for the epochs after it, described by `catalog.idx`
// (src/catalog/format.h). `Catalog` materializes any epoch on demand —
// full snapshots load directly, deltas apply against their base chain in
// memory — and keeps a bounded LRU of materialized EngineState
// generations so the server's AT / HISTORY verbs stay cheap for the
// epochs clients actually ask about.
//
// Authoring lives here too: `catalog_init` starts a catalog with one full
// snapshot, `catalog_append` diffs the next epoch against the previous one
// and writes a delta — or falls back to a fresh full snapshot (a new chain
// anchor) when the delta exceeds `max_delta_fraction` of the chain's
// anchor size. The index is rewritten atomically, so a serving catalog can
// be appended to with zero downtime: `refresh()` picks up the new epoch
// and every previously materialized epoch keeps serving.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/format.h"
#include "leasing/types.h"
#include "serve/epoch_source.h"
#include "snapshot/snapshot.h"
#include "util/expected.h"

namespace sublet::catalog {

/// One catalog.idx row (format.h documents the on-disk layout).
struct EpochEntry {
  std::uint32_t epoch = 0;       ///< unix seconds, strictly ascending
  EpochKind kind = EpochKind::kFull;
  std::uint32_t base_epoch = 0;  ///< delta: earlier epoch; full: 0
  std::uint64_t records = 0;     ///< materialized record count
  std::uint64_t bytes = 0;       ///< file size on disk
  std::string name;              ///< file name inside the catalog dir
};

/// Serialize `entries` as a catalog.idx image (header + CRC'd payload).
std::vector<std::uint8_t> encode_index(const std::vector<EpochEntry>& entries);

/// Parse and fully validate a catalog.idx image: magic/version/CRC, entry
/// bounds, strictly ascending epochs, delta bases resolving to an earlier
/// entry, and file names free of '/' and NUL. Fault site
/// `catalog.index_parse` forces the error path.
Expected<std::vector<EpochEntry>> parse_index(
    std::span<const std::uint8_t> bytes);

/// Read + parse `<dir>/catalog.idx`.
Expected<std::vector<EpochEntry>> read_index(const std::string& dir);

/// Atomically rewrite `<dir>/catalog.idx` (tmp + fsync + rename). Throws
/// std::runtime_error on I/O failure (DESIGN.md §3).
void write_index_file(const std::string& dir,
                      const std::vector<EpochEntry>& entries);

struct CatalogOptions {
  /// Materialized epochs kept hot; the latest epoch is pinned on top of
  /// this, so it can never be evicted by history traffic.
  std::size_t lru_capacity = 8;
};

class Catalog : public serve::EpochSource {
 public:
  /// Open `<dir>/catalog.idx` and validate the epoch list. No epoch is
  /// materialized yet. Crash leftovers from a killed append — `*.tmp`
  /// files and epoch files the index does not reference — are swept
  /// (best-effort) before the catalog is returned, so open() must never
  /// run concurrently with an in-flight catalog_append() on the same
  /// directory. Fault site `catalog.open` forces the error path.
  static Expected<std::unique_ptr<Catalog>> open(std::string dir,
                                                 CatalogOptions options = {});

  const std::string& dir() const { return dir_; }
  std::vector<EpochEntry> entries() const;

  // serve::EpochSource
  std::vector<std::uint32_t> epochs() const override;
  Expected<std::shared_ptr<const serve::EngineState>> epoch_at(
      std::uint32_t at) override;
  Expected<std::shared_ptr<const serve::EngineState>> refresh() override;

  /// Materialize exactly `epoch` (must be listed). Full snapshots load
  /// from disk; deltas materialize their base chain first, then apply in
  /// memory (fault site `catalog.apply_delta`). Results are cached in the
  /// LRU; a failure leaves every previously materialized epoch untouched.
  Expected<std::shared_ptr<const serve::EngineState>> materialize(
      std::uint32_t epoch);

  /// Slow canonical reconstruction: the epoch's records as a canonical
  /// LeaseInference list, rebuilt record-by-record along the delta chain.
  /// encode_snapshot() of this list is byte-identical to the full snapshot
  /// the authoring path would have written for `epoch` — the differential
  /// suite and `catalog verify --deep` pin exactly that.
  Expected<std::vector<leasing::LeaseInference>> reconstruct(
      std::uint32_t epoch) const;

  struct EpochCheck {
    std::uint32_t epoch = 0;
    bool ok = false;
    std::string detail;  ///< failure reason, or empty
  };
  struct VerifyReport {
    std::vector<EpochCheck> checks;  ///< one per epoch, index order
    std::size_t broken = 0;
    bool ok() const { return broken == 0; }
  };

  /// Check every epoch without crashing on damage: files open and pass
  /// CRC/structure validation, record counts and sizes match the index,
  /// and delta base chains resolve to a healthy anchor (an epoch whose
  /// base is missing or corrupt reports broken, as does every epoch
  /// chained on top of it). `deep` additionally reconstructs each healthy
  /// epoch and re-encodes it, comparing against the chain's semantics.
  VerifyReport verify(bool deep = false) const;

  std::size_t cached_epochs() const;

 private:
  Catalog(std::string dir, CatalogOptions options,
          std::vector<EpochEntry> entries);

  /// Entry for `epoch`, or nullptr. Caller holds no lock (entries_ is
  /// immutable behind a shared_ptr swap).
  std::shared_ptr<const std::vector<EpochEntry>> snapshot_entries() const;

  /// Materialize with build_mu_ held; recurses along the delta chain.
  Expected<std::shared_ptr<const serve::EngineState>> materialize_locked(
      const std::vector<EpochEntry>& entries, std::uint32_t epoch);

  /// Apply `delta_name` on top of `base`; returns the new state.
  Expected<std::shared_ptr<const serve::EngineState>> apply_delta(
      const serve::EngineState& base, const EpochEntry& entry,
      bool is_latest);

  std::shared_ptr<const serve::EngineState> cache_get(std::uint32_t epoch);
  void cache_put(std::uint32_t epoch,
                 std::shared_ptr<const serve::EngineState> state);

  std::string dir_;
  CatalogOptions options_;

  mutable std::mutex entries_mu_;
  std::shared_ptr<const std::vector<EpochEntry>> entries_;

  /// Serializes materializations (chains can recurse); cache_mu_ alone
  /// guards the LRU so hits never wait behind a build.
  std::mutex build_mu_;
  mutable std::mutex cache_mu_;
  struct CacheSlot {
    std::shared_ptr<const serve::EngineState> state;
    std::list<std::uint32_t>::iterator lru_it;
  };
  std::unordered_map<std::uint32_t, CacheSlot> cache_;
  std::list<std::uint32_t> lru_;  ///< front = most recently used
  std::shared_ptr<const serve::EngineState> latest_;  ///< pinned
};

/// Authoring options for catalog_append.
struct AppendOptions {
  /// A delta larger than this fraction of its chain anchor's full-snapshot
  /// size is abandoned for a fresh full snapshot (a new chain anchor).
  double max_delta_fraction = 0.5;
  bool force_full = false;
};

/// Create `<dir>` (if needed) and write epoch `epoch` as the catalog's
/// first full snapshot plus the index. Fails if the catalog already has an
/// index. Returns the entry written.
Expected<EpochEntry> catalog_init(
    const std::string& dir, std::uint32_t epoch,
    std::vector<leasing::LeaseInference> inferences);

/// Append epoch `epoch` (> every existing epoch): diff against the
/// previous epoch and write a delta, or fall back to a full snapshot per
/// `AppendOptions`. The index is rewritten atomically last, so a serving
/// Catalog only ever observes the complete epoch. Returns the entry
/// written (kind tells which way the size guard went).
Expected<EpochEntry> catalog_append(
    const std::string& dir, std::uint32_t epoch,
    std::vector<leasing::LeaseInference> inferences,
    const AppendOptions& options = {});

}  // namespace sublet::catalog
