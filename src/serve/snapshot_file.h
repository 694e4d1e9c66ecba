// A single snapshot file as a one-epoch EpochSource, so `serve <snapshot>`
// and `serve --catalog <dir>` run the same server code (docs/SERVING.md).
//
// Its only epoch is 0: the file's current contents. Any other epoch is
// refused with the same error a time-travel query gets from a server that
// has no catalog, and refresh() re-reads the same path as the next
// generation — bare RELOAD on a snapshot server.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "serve/engine_state.h"
#include "serve/epoch_source.h"
#include "util/expected.h"

namespace sublet::serve {

class SnapshotFile : public EpochSource {
 public:
  /// Serve an already-loaded state; refresh() re-reads state->path().
  explicit SnapshotFile(std::shared_ptr<const EngineState> state)
      : path_(state->path()),
        state_(std::move(state)),
        generation_(state_->generation()) {}
  /// A file not read yet: the first refresh() loads `path` at
  /// `generation` + 1 (RELOAD <path> continues the served generations).
  SnapshotFile(std::string path, std::uint64_t generation)
      : path_(std::move(path)), generation_(generation) {}

  std::vector<std::uint32_t> epochs() const override { return {0}; }

  Expected<std::shared_ptr<const EngineState>> epoch_at(
      std::uint32_t at) override {
    if (at != 0) return fail("epoch queries need a catalog-mode server");
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == nullptr) return fail(path_ + " is not loaded yet");
    return state_;
  }

  Expected<std::shared_ptr<const EngineState>> refresh() override {
    // Load outside the lock: epoch_at() keeps answering from the current
    // state, which a failed load leaves untouched.
    std::unique_lock<std::mutex> lock(mu_);
    const std::uint64_t generation = generation_ + 1;
    lock.unlock();
    auto next = EngineState::load(path_, generation);
    if (!next) return next.error();
    lock.lock();
    state_ = *next;
    generation_ = generation;
    return next;
  }

 private:
  const std::string path_;
  std::mutex mu_;
  std::shared_ptr<const EngineState> state_;  ///< null until first load
  std::uint64_t generation_;  ///< of state_, or the one before it
};

}  // namespace sublet::serve
