#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace glp {

namespace {

// True while this thread is executing a chunk; nested parallel_for calls
// run inline instead of re-entering the (non-reentrant) pool.
thread_local bool t_in_parallel = false;

/// Marks the current thread as inside a chunk for its lifetime, restoring
/// the previous state on every exit path (including a throwing chunk).
class ParallelRegion {
 public:
  ParallelRegion() : saved_(t_in_parallel) { t_in_parallel = true; }
  ~ParallelRegion() { t_in_parallel = saved_; }
  ParallelRegion(const ParallelRegion&) = delete;
  ParallelRegion& operator=(const ParallelRegion&) = delete;

 private:
  bool saved_;
};

int env_workers() {
  const char* s = std::getenv("GLP_NUM_THREADS");
  if (s == nullptr || *s == '\0') return 0;
  const long v = std::strtol(s, nullptr, 10);
  if (v < 1) return 0;
  return static_cast<int>(std::min(v, 256L));
}

int default_workers() {
  const int env = env_workers();
  if (env > 0) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(hw > 1 ? hw : 1);
}

// Everything one parallel_for dispatch needs. Heap-allocated and shared
// so a worker that wakes late (or grabs its last ticket just as the call
// completes) only ever touches an exhausted counter, never a stale or
// dead task — which is what makes resetting per-call state safe without
// a generation handshake.
struct Run {
  detail::RangeFn fn = nullptr;
  void* ctx = nullptr;
  std::size_t begin = 0;
  std::size_t grain = 1;
  std::size_t n_chunks = 0;
  std::size_t end = 0;
  std::atomic<std::size_t> next{0};       // ticket dispenser
  std::atomic<std::size_t> remaining{0};  // chunks not yet finished
  // First exception a chunk threw. Once set, later tickets are retired
  // without running; the caller rethrows it after every chunk is done.
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;
};

// Fixed pool of workers woken per parallel_for call. Threads are created
// on first use (or by set_parallel_workers) and joined at shutdown
// (CP.25-style ownership: the pool owns and joins its threads). Chunks
// are handed out through an atomic ticket counter, so load imbalance
// between chunks does not serialize the call the way the old fixed
// partitioning did.
class Pool {
 public:
  explicit Pool(int workers) { start(workers); }
  ~Pool() { stop(); }

  int workers() const { return worker_count_; }

  void resize(int workers) {
    workers = std::max(1, workers);
    if (workers == worker_count_) return;
    stop();
    start(workers);
  }

  void run(std::size_t begin, std::size_t end, std::size_t grain,
           detail::RangeFn fn, void* ctx) {
    auto run = std::make_shared<Run>();
    run->fn = fn;
    run->ctx = ctx;
    run->begin = begin;
    run->end = end;
    run->grain = grain;
    run->n_chunks = (end - begin + grain - 1) / grain;
    run->next.store(0, std::memory_order_relaxed);
    run->remaining.store(run->n_chunks, std::memory_order_relaxed);
    {
      const std::scoped_lock lock(mutex_);
      current_ = run;
      ++generation_;
    }
    cv_.notify_all();
    // The caller works too. If its own final ticket retired the last
    // chunk, every chunk has finished and there is nothing to wait for —
    // skip the mutex + condition variable round trip entirely.
    if (!drain(*run)) {
      std::unique_lock lock(mutex_);
      done_cv_.wait(lock, [&run] {
        return run->remaining.load(std::memory_order_acquire) == 0;
      });
    }
    // No chunk is in flight any more, so the callable (on the caller's
    // stack) is no longer referenced and the error can be rethrown.
    if (run->failed.load(std::memory_order_acquire)) {
      std::rethrow_exception(run->error);
    }
  }

 private:
  void start(int workers) {
    worker_count_ = std::max(1, workers);
    shutdown_ = false;
    const int spawn = worker_count_ - 1;  // the caller participates
    threads_.reserve(static_cast<std::size_t>(spawn));
    for (int i = 0; i < spawn; ++i) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }

  void stop() {
    {
      const std::scoped_lock lock(mutex_);
      shutdown_ = true;
      ++generation_;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
    threads_.clear();
    current_.reset();
  }

  /// Execute tickets until the dispenser is exhausted. Returns true if
  /// this thread retired the final outstanding chunk.
  bool drain(Run& run) {
    bool retired_last = false;
    for (;;) {
      const std::size_t c = run.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= run.n_chunks) break;
      const std::size_t lo = run.begin + c * run.grain;
      const std::size_t hi = std::min(run.end, lo + run.grain);
      if (!run.failed.load(std::memory_order_relaxed)) {
        try {
          const ParallelRegion region;
          run.fn(run.ctx, lo, hi);
        } catch (...) {
          const std::scoped_lock lock(run.error_mutex);
          if (!run.failed.load(std::memory_order_relaxed)) {
            run.error = std::current_exception();
            run.failed.store(true, std::memory_order_release);
          }
        }
      }
      if (run.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        retired_last = true;
      }
    }
    return retired_last;
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Run> run;
      {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [this, seen] { return generation_ != seen || shutdown_; });
        if (shutdown_) return;
        seen = generation_;
        run = current_;  // shared ownership; safe after the caller returns
      }
      if (run && drain(*run)) {
        // Last chunk retired on a worker: wake the (possibly) waiting
        // caller. The lock orders the notify against the caller's wait.
        const std::scoped_lock lock(mutex_);
        done_cv_.notify_one();
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;
  int worker_count_ = 1;

  std::shared_ptr<Run> current_;
  std::uint64_t generation_ = 0;
  bool shutdown_ = false;
};

Pool& pool() {
  static Pool p(default_workers());
  return p;
}

}  // namespace

int parallel_workers() { return pool().workers(); }

void set_parallel_workers(int workers) { pool().resize(workers); }

namespace detail {

void parallel_for_impl(std::size_t begin, std::size_t end, std::size_t grain,
                       RangeFn fn, void* ctx) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  if (end - begin <= grain || t_in_parallel || pool().workers() == 1) {
    fn(ctx, begin, end);
    return;
  }
  pool().run(begin, end, grain, fn, ctx);
}

}  // namespace detail

}  // namespace glp
