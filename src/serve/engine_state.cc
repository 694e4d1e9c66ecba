#include "serve/engine_state.h"

namespace sublet::serve {

Expected<std::shared_ptr<const EngineState>> EngineState::load(
    const std::string& path, std::uint64_t generation, std::uint32_t epoch) {
  auto snap = snapshot::Snapshot::open(path);
  if (!snap) return snap.error();
  return adopt(std::make_unique<snapshot::Snapshot>(std::move(*snap)), path,
               generation, epoch);
}

Expected<std::shared_ptr<const EngineState>> EngineState::adopt(
    std::unique_ptr<snapshot::Snapshot> snap, std::string path,
    std::uint64_t generation, std::uint32_t epoch, TrieStride stride) {
  auto engine = QueryEngine::create(snap.get(), stride);
  if (!engine) return engine.error();
  return std::shared_ptr<const EngineState>(
      new EngineState(std::move(snap), std::move(*engine), std::move(path),
                      generation, epoch));
}

Expected<std::shared_ptr<const EngineState>> EngineState::adopt_patched(
    std::unique_ptr<snapshot::Snapshot> snap,
    std::shared_ptr<const PrefixTrie<std::uint32_t>> trie,
    const QueryEngine& base,
    std::optional<std::span<const std::uint32_t>> surviving,
    std::span<const std::uint32_t> patched, std::string path,
    std::uint64_t generation, std::uint32_t epoch) {
  auto engine = QueryEngine::create_patched(snap.get(), std::move(trie),
                                            base, surviving, patched);
  if (!engine) return engine.error();
  return std::shared_ptr<const EngineState>(
      new EngineState(std::move(snap), std::move(*engine), std::move(path),
                      generation, epoch));
}

}  // namespace sublet::serve
