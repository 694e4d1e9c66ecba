#include "util/parallel.h"

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <queue>
#include <thread>

namespace sublet::par {

namespace {

unsigned hardware_threads() {
  unsigned n = std::thread::hardware_concurrency();
  return n ? n : 1;
}

std::atomic<unsigned>& default_threads_slot() {
  static std::atomic<unsigned> value{hardware_threads()};
  return value;
}

/// Binds the calling worker thread to one CPU of the process's affinity
/// mask (the main thread's, so a worker started by a pinned worker still
/// spreads), taking the mask's CPUs round-robin over every worker the
/// process starts, from an offset set by the pid so that concurrent
/// processes with small pools do not all start on the same CPU. Unpinned,
/// on a 4-vCPU VM, the kernel often left all four workers of a fresh pool
/// on CPU 0 for ~0.5 s while CPUs 1-3 stayed idle (most often after an
/// idle spell), so a parallel load ran serially in some runs and not in
/// others.
void pin_worker() {
  static std::atomic<unsigned> next{static_cast<unsigned>(getpid())};
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(getpid(), sizeof(allowed), &allowed) != 0) return;
  const int count = CPU_COUNT(&allowed);
  if (count < 2) return;
  int skip = static_cast<int>(next.fetch_add(1) % static_cast<unsigned>(count));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    return;
  }
}

}  // namespace

unsigned default_threads() { return default_threads_slot().load(); }

void set_default_threads(unsigned n) {
  default_threads_slot().store(n ? n : hardware_threads());
}

unsigned resolve_threads(unsigned requested) {
  return requested ? requested : default_threads();
}

std::size_t recommended_chunk(std::size_t n, unsigned threads) {
  unsigned t = resolve_threads(threads);
  std::size_t chunks = static_cast<std::size_t>(t) * 4;
  std::size_t chunk = (n + chunks - 1) / chunks;
  return chunk ? chunk : 1;
}

// ------------------------------------------------------------ ThreadPool --

struct ThreadPool::State {
  std::mutex mu;
  std::condition_variable work_cv;   // workers sleep here
  std::condition_variable idle_cv;   // wait() sleeps here
  std::queue<std::function<void()>> queue;
  std::size_t in_flight = 0;  // queued + currently running
  bool stop = false;
};

ThreadPool::ThreadPool(unsigned threads) : state_(std::make_unique<State>()) {
  unsigned t = resolve_threads(threads);
  if (t <= 1) return;  // inline mode: submit() runs tasks directly
  workers_.reserve(t);
  for (unsigned i = 0; i < t; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->stop = true;
  }
  state_->work_cv.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();  // serial mode: run inline, in submission order
    return;
  }
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->queue.push(std::move(task));
    ++state_->in_flight;
  }
  state_->work_cv.notify_one();
}

void ThreadPool::wait() {
  if (workers_.empty()) return;
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->idle_cv.wait(lock, [&] { return state_->in_flight == 0; });
}

void ThreadPool::worker_loop() {
  pin_worker();
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(state_->mu);
      state_->work_cv.wait(
          lock, [&] { return state_->stop || !state_->queue.empty(); });
      if (state_->queue.empty()) return;  // stop requested, queue drained
      task = std::move(state_->queue.front());
      state_->queue.pop();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      if (--state_->in_flight == 0) state_->idle_cv.notify_all();
    }
  }
}

// ---------------------------------------------------------- parallel_for --

void parallel_for(std::size_t n, std::size_t chunk,
                  const std::function<void(std::size_t, std::size_t)>& fn,
                  unsigned threads) {
  if (n == 0) return;
  unsigned t = resolve_threads(threads);
  if (chunk == 0) chunk = recommended_chunk(n, t);
  if (t <= 1 || n <= chunk) {
    for (std::size_t begin = 0; begin < n; begin += chunk) {
      fn(begin, std::min(begin + chunk, n));
    }
    return;
  }

  ThreadPool pool(t);
  std::mutex error_mu;
  std::exception_ptr error;
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    std::size_t end = std::min(begin + chunk, n);
    pool.submit([&, begin, end] {
      try {
        fn(begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
      }
    });
  }
  pool.wait();
  if (error) std::rethrow_exception(error);
}

// ------------------------------------------------------------- TaskGroup --

TaskGroup::TaskGroup(unsigned threads) : pool_(threads) {}

TaskGroup::~TaskGroup() {
  // Tasks reference captured state owned by the caller: never let them
  // outlive the group, even when wait() was skipped because of an
  // exception further up the stack.
  pool_.wait();
}

void TaskGroup::run(std::function<void()> task) {
  pool_.submit([this, task = std::move(task)] {
    try {
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu_);
      if (!error_) error_ = std::current_exception();
    }
  });
}

void TaskGroup::wait() {
  pool_.wait();
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    std::swap(error, error_);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace sublet::par
