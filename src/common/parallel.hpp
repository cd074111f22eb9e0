// Shared-memory parallel execution layer: a fixed-size work-stealing
// ThreadPool owned by a process-global ParallelContext, plus the
// ParallelFor / TaskGroup / deterministic-reduction primitives the kernels
// in sparse/ and core/ are built on.
//
// Design contract (see docs/ARCHITECTURE.md, "Parallelism"):
//  * The pool is sized once at startup — from --threads, BEPI_THREADS, or
//    std::thread::hardware_concurrency() — and `1` means *no pool at all*:
//    every primitive below degrades to a plain serial loop with zero
//    thread-pool involvement, so single-threaded behavior is exactly the
//    pre-parallel behavior.
//  * Results are bit-identical across thread counts. Reductions chunk the
//    index range by a fixed grain (never by the number of workers) and
//    combine the per-chunk partials in a fixed pairwise order; row-
//    partitioned SpMV keeps each output row's accumulation order intact.
//  * Nested parallelism runs inline: a task already executing on a pool
//    worker that calls ParallelFor/TaskGroup gets the serial path. This
//    makes the primitives safe to use inside the panel tasks of a wide
//    BepiSolver::Solve span without deadlock or oversubscription.
//  * Fork-safe: a child forked while the pool exists inherits none of its
//    worker threads, so the child switches to the serial path (the
//    exact `1`-thread behavior above) instead of waiting on them.
//  * Telemetry: the pool bumps `parallel.tasks` per executed task and
//    `parallel.steal` per successful steal, and wraps every task in a
//    `parallel.task` TraceSpan so --trace-out shows the actual schedule.
#ifndef BEPI_COMMON_PARALLEL_HPP_
#define BEPI_COMMON_PARALLEL_HPP_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace bepi {

/// std::thread::hardware_concurrency() clamped to at least 1.
int HardwareThreads();

/// Fixed-size work-stealing thread pool. Each worker owns a deque; Submit
/// distributes round-robin, owners pop LIFO from the back, idle workers
/// steal FIFO from the front of a victim's deque. Tasks must not block on
/// other tasks (TaskGroup::Wait from a worker runs work inline instead).
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(threads_.size()); }

  /// Enqueues a task. The callable must not throw out of the pool — wrap
  /// user code in a TaskGroup, which captures exceptions and rethrows them
  /// on Wait.
  void Submit(std::function<void()> task);

  /// True when the calling thread is a worker of *any* ThreadPool. Used to
  /// run nested parallel constructs inline.
  static bool OnWorkerThread();

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerLoop(std::size_t self);
  bool TryPop(std::size_t self, std::function<void()>* task);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> threads_;
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::atomic<std::uint64_t> next_queue_{0};
  std::atomic<std::int64_t> queued_{0};
  std::atomic<bool> shutdown_{false};
};

/// Process-global owner of the (single) ThreadPool. Thread count is
/// resolved at first use from BEPI_THREADS (default: HardwareThreads());
/// SetNumThreads overrides it, e.g. from the --threads CLI flag. With one
/// thread no pool exists and pool() returns nullptr.
class ParallelContext {
 public:
  static ParallelContext& Global();

  /// Configured width: pool size, or 1 when running serially.
  int num_threads() const;

  /// The pool, or nullptr in single-threaded mode. The pointer is stable
  /// until the next SetNumThreads call.
  ThreadPool* pool() const { return pool_ptr_.load(std::memory_order_acquire); }

  /// Resizes the pool (joining the old one). `n` >= 1; 0 restores the
  /// BEPI_THREADS/hardware default. Must not be called while parallel work
  /// is in flight — intended for process startup and tests.
  Status SetNumThreads(int n);

 private:
  ParallelContext();

  /// pthread_atfork handlers: hold mutex_ across fork() so the child never
  /// inherits it locked, and put the child on the serial path.
  static void ForkPrepare();
  static void ForkParent();
  static void ForkChild();

  mutable std::mutex mutex_;
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<ThreadPool*> pool_ptr_{nullptr};
  int num_threads_ = 1;
};

/// Blocking fork-join scope. Run() submits to the pool (or runs inline
/// when the pool is null or we are already on a worker); Wait() blocks
/// until every submitted task finished and rethrows the first captured
/// exception. Reusable after Wait().
class TaskGroup {
 public:
  /// `pool` may be null (every Run executes inline). Defaults to the
  /// global context's pool.
  explicit TaskGroup(ThreadPool* pool);
  TaskGroup();
  ~TaskGroup();
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Run(std::function<void()> fn);
  /// Blocks until all tasks complete; rethrows the first task exception.
  void Wait();

 private:
  ThreadPool* pool_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t outstanding_ = 0;
  std::exception_ptr error_;
};

/// Runs body(chunk_begin, chunk_end) over [begin, end) split into chunks
/// of at most `grain` elements (grain <= 0 is treated as 1). Chunk
/// boundaries depend only on the range and the grain — never on the
/// thread count — so grain-dependent computations are reproducible.
/// Serial (in-order) when the pool is null, on a worker thread, or when
/// there is only one chunk. Exceptions from `body` propagate.
void ParallelFor(index_t begin, index_t end, index_t grain,
                 const std::function<void(index_t, index_t)>& body);

/// Deterministic parallel sum: partials are computed per fixed-grain chunk
/// and combined by fixed-order pairwise (tree) summation, so the result is
/// bit-identical for any thread count — including 1, which runs the same
/// chunked summation serially.
real_t ParallelReduceSum(index_t begin, index_t end, index_t grain,
                         const std::function<real_t(index_t, index_t)>&
                             chunk_sum);

/// Max-reduction with the same chunking (max is order-insensitive, but the
/// shared shape keeps all reductions on one code path).
real_t ParallelReduceMax(index_t begin, index_t end, index_t grain,
                         const std::function<real_t(index_t, index_t)>&
                             chunk_max);

namespace internal {

/// Startup hook: reads BEPI_THREADS once (positive integer; anything else
/// falls back to HardwareThreads()).
int ThreadsFromEnv();

}  // namespace internal

}  // namespace bepi

#endif  // BEPI_COMMON_PARALLEL_HPP_
