// One generation of serving state: a loaded snapshot plus the query engine
// built over it, immutable after construction.
//
// The server publishes the current generation inside its ServingView
// (serve/server.h) and swaps the view atomically on RELOAD (RCU style):
// in-flight requests keep the view they grabbed and finish on the old
// engine; the old snapshot is retired automatically when the last
// reference drops. A failed load never touches the currently-served state
// (docs/ROBUSTNESS.md).
//
// With the multi-epoch catalog (docs/TIMETRAVEL.md) a process can hold
// several EngineStates at once — one per materialized epoch — so every
// state carries its epoch identity: the unix timestamp of the snapshot it
// serves, or 0 for a single snapshot file, the one epoch of a
// SnapshotFile source (serve/snapshot_file.h).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "serve/query_engine.h"
#include "snapshot/snapshot.h"
#include "util/expected.h"

namespace sublet::serve {

class EngineState {
 public:
  /// Map + fully validate the snapshot at `path`, then build the engine.
  /// On any failure nothing is swapped anywhere — the caller keeps serving
  /// whatever it served before.
  static Expected<std::shared_ptr<const EngineState>> load(
      const std::string& path, std::uint64_t generation = 1,
      std::uint32_t epoch = 0);

  /// Adopt an already-validated snapshot (loads, the catalog's full
  /// epochs, tests, benches). `stride` picks whether the engine's trie
  /// carries the DIR-24-8 stride table (QueryEngine::create).
  static Expected<std::shared_ptr<const EngineState>> adopt(
      std::unique_ptr<snapshot::Snapshot> snap, std::string path,
      std::uint64_t generation = 1, std::uint32_t epoch = 0,
      TrieStride stride = TrieStride::kBuild);

  /// Adopt a snapshot whose engine's STATS aggregate is patched from
  /// `base`'s instead of recounted (QueryEngine::create_patched) — the
  /// catalog's delta-apply path, where almost every row carries over from
  /// the base epoch unchanged. The trie is shared, not owned: an
  /// in-place-only delta passes the base epoch's trie handle verbatim.
  static Expected<std::shared_ptr<const EngineState>> adopt_patched(
      std::unique_ptr<snapshot::Snapshot> snap,
      std::shared_ptr<const PrefixTrie<std::uint32_t>> trie,
      const QueryEngine& base,
      std::optional<std::span<const std::uint32_t>> surviving,
      std::span<const std::uint32_t> patched, std::string path,
      std::uint64_t generation, std::uint32_t epoch);

  const QueryEngine& engine() const { return engine_; }
  const snapshot::Snapshot& snapshot() const { return *snap_; }
  std::uint64_t generation() const { return generation_; }
  /// Epoch timestamp this state serves; 0 = a single snapshot file.
  std::uint32_t epoch() const { return epoch_; }
  const std::string& path() const { return path_; }

 private:
  EngineState(std::unique_ptr<snapshot::Snapshot> snap, QueryEngine engine,
              std::string path, std::uint64_t generation, std::uint32_t epoch)
      : snap_(std::move(snap)),
        engine_(std::move(engine)),
        path_(std::move(path)),
        generation_(generation),
        epoch_(epoch) {}

  // unique_ptr keeps the snapshot's address stable: the engine's trie and
  // record accessors point into it.
  std::unique_ptr<snapshot::Snapshot> snap_;
  QueryEngine engine_;
  std::string path_;
  std::uint64_t generation_;
  std::uint32_t epoch_;
};

}  // namespace sublet::serve
