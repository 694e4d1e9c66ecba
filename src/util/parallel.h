// Shared-memory parallelism primitives for the pipeline's hot paths.
//
// Everything here is built on one fixed-size ThreadPool. Three primitives
// cover the codebase's needs:
//
//  - parallel_for(n, chunk, fn): partition [0, n) into contiguous chunks
//    and invoke fn(begin, end) concurrently. With an effective thread
//    count of 1 the chunks run serially in order — the exact legacy path.
//  - parallel_map(items, fn): apply fn to every element and return the
//    results *in input order*, regardless of which worker finished first.
//    This is what keeps classification output byte-identical across
//    thread counts.
//  - TaskGroup: heterogeneous fan-out (load five WHOIS files and N RIB
//    files at once). With one thread, tasks run inline at submission time
//    in submission order.
//
// Thread-count convention: every primitive takes `threads`, where 0 means
// "use the process-wide default" (set_default_threads / --threads; initial
// value hardware_concurrency) and 1 means strictly serial — no worker
// threads are created at all. The first exception thrown by any chunk or
// task is captured and rethrown from the calling thread after all work
// has drained; further exceptions are discarded.
//
// Each worker thread pins itself to one CPU of the process's affinity mask,
// round-robin across all workers the process starts, so a pool's workers
// run on distinct CPUs from their first task (pin_worker in parallel.cc).
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace sublet::par {

/// Worker count used when a primitive is called with threads == 0.
/// Initially std::thread::hardware_concurrency() (at least 1).
unsigned default_threads();

/// Override the process-wide default. 0 resets to hardware_concurrency.
void set_default_threads(unsigned n);

/// Resolve a requested count: 0 -> default_threads(), otherwise n.
unsigned resolve_threads(unsigned requested);

/// Chunk size that gives each worker a few chunks to load-balance over:
/// ceil(n / (threads * 4)), at least 1.
std::size_t recommended_chunk(std::size_t n, unsigned threads);

/// Fixed pool of worker threads draining one task queue.
class ThreadPool {
 public:
  /// Spawns resolve_threads(threads) workers. When that resolves to 1, no
  /// worker threads are created and submitted tasks run inline inside
  /// submit(), in submission order — the exact legacy execution.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Effective thread count: 1 in inline (serial) mode, else the number
  /// of worker threads.
  unsigned size() const {
    return workers_.empty() ? 1u : static_cast<unsigned>(workers_.size());
  }

  /// Enqueue a task. With zero workers the task runs inline immediately.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.
  void wait();

 private:
  struct State;
  void worker_loop();

  std::unique_ptr<State> state_;
  std::vector<std::thread> workers_;
};

/// Invoke fn(begin, end) over [0, n) partitioned into chunks of at most
/// `chunk` indices (0 = recommended_chunk). Rethrows the first exception.
void parallel_for(std::size_t n, std::size_t chunk,
                  const std::function<void(std::size_t, std::size_t)>& fn,
                  unsigned threads = 0);

/// Heterogeneous fan-out: run() any number of independent tasks, then
/// wait() for all of them. wait() rethrows the first task exception.
class TaskGroup {
 public:
  explicit TaskGroup(unsigned threads = 0);
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Tasks may run() further tasks on the same group (continuations);
  /// wait() returns once those have finished too.
  void run(std::function<void()> task);

  /// Effective thread count (1 = tasks run inline inside run()).
  unsigned size() const { return pool_.size(); }

  /// Drain all tasks; rethrows the first captured exception.
  void wait();

 private:
  ThreadPool pool_;
  std::mutex error_mu_;
  std::exception_ptr error_;
};

/// Order-preserving map: out[i] == fn(items[i]). The result type only
/// needs to be move-constructible. Serial (and allocation-identical to a
/// plain loop) when the effective thread count is 1.
template <typename In, typename Fn>
auto parallel_map(const std::vector<In>& items, Fn fn, unsigned threads = 0)
    -> std::vector<std::decay_t<std::invoke_result_t<Fn&, const In&>>> {
  using Out = std::decay_t<std::invoke_result_t<Fn&, const In&>>;
  std::vector<Out> out;
  unsigned t = resolve_threads(threads);
  if (t <= 1 || items.size() <= 1) {
    out.reserve(items.size());
    for (const In& item : items) out.push_back(fn(item));
    return out;
  }
  std::vector<std::optional<Out>> slots(items.size());
  parallel_for(
      items.size(), recommended_chunk(items.size(), t),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) slots[i].emplace(fn(items[i]));
      },
      t);
  out.reserve(slots.size());
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

}  // namespace sublet::par
