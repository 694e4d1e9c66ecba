// Abstract epoch serving source (docs/TIMETRAVEL.md).
//
// Every server holds exactly one source: a SnapshotFile
// (serve/snapshot_file.h) serves one snapshot as the single epoch 0, and
// the catalog serves a timestamped series. The time-travel verbs (AT /
// HISTORY, plus the binary frame epoch field) and RELOAD go through this
// interface instead of a concrete store, so sublet_serve stays below
// sublet_catalog in the link graph: the catalog implements EpochSource on
// top of EngineState, and the CLI wires the two together.
// Implementations must be safe to call from every shard thread
// concurrently.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "serve/engine_state.h"
#include "util/expected.h"

namespace sublet::serve {

class EpochSource {
 public:
  virtual ~EpochSource() = default;

  /// All epoch timestamps, ascending. Never empty for a healthy source;
  /// {0} for a single snapshot.
  virtual std::vector<std::uint32_t> epochs() const = 0;

  /// Materialized state for the newest epoch whose timestamp is <= `at`
  /// (standard as-of semantics); `at` = 0 means the latest epoch. Errors
  /// when `at` predates the first epoch or materialization fails — in
  /// which case previously materialized epochs stay served, same contract
  /// as a failed RELOAD.
  virtual Expected<std::shared_ptr<const EngineState>> epoch_at(
      std::uint32_t at) = 0;

  /// Re-scan the backing store (appended epochs, or a rewritten snapshot
  /// file) and return the new latest state. Failure leaves the
  /// currently-known epochs serving.
  virtual Expected<std::shared_ptr<const EngineState>> refresh() = 0;
};

}  // namespace sublet::serve
