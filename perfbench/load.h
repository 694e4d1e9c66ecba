// Traffic generators against a running server.
//
// OpenLoop sends text request lines on a fixed schedule from `threads`
// threads, each owning `conns` non-blocking connections, and times every
// request from the moment it was due (so a stall charges every request
// queued behind it) while also recording how late the generator sent it.
// FrameLoop keeps a fixed number of binary LPM_BATCH frames in flight per
// connection (closed loop) and times each frame from send to answer.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"

namespace pb {

struct TextLoadStats {
  Windowed latency_us;   ///< due time -> response, by due time
  Windowed lateness_us;  ///< due time -> send, by due time
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< unanswered or transport errors
  std::uint64_t wrong = 0;   ///< answers the check rejected
  double elapsed_s = 0;
};

struct OpenLoopOptions {
  std::uint16_t port = 0;
  double rate = 1000;  ///< requests per second, all threads together
  double seconds = 1;
  unsigned threads = 2;
  unsigned conns = 2;  ///< per thread
  std::uint64_t seed = 1;
};

/// Picks the next request: returns its id and sets `line` (no newline).
using PickFn = std::function<std::uint32_t(std::uint64_t& rng_state,
                                           std::string& line)>;
/// Checks one answer. The server handled the request somewhere between
/// `due` and `received`, seconds on the shared steady clock (clock_s()).
/// Called from generator threads.
using CheckFn = std::function<bool(unsigned thread, std::uint32_t id,
                                   std::string_view response, double due,
                                   double received)>;

TextLoadStats run_open_loop(const OpenLoopOptions& options, const PickFn& pick,
                            const CheckFn& check);

struct FrameLoadStats {
  Windowed frame_us;  ///< send -> answer, by send time
  std::uint64_t frames = 0;
  std::uint64_t lookups = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  double elapsed_s = 0;
};

/// One prepared frame: the request bytes and the exact answer bytes.
struct PreparedFrame {
  std::string request;
  std::string expected_payload;
  std::uint32_t lookups = 0;
};

/// Closed loop: `threads` threads, one connection each, `depth` frames in
/// flight per connection, cycling through `frames` for `seconds`.
FrameLoadStats run_frame_loop(std::uint16_t port,
                              const std::vector<PreparedFrame>& frames,
                              double seconds, unsigned threads,
                              unsigned depth, std::uint64_t seed);

/// Seconds on the steady clock (the time base CheckFn receives).
double clock_s();

/// splitmix64 step: deterministic per-thread random stream.
std::uint64_t next_random(std::uint64_t& state);

}  // namespace pb
