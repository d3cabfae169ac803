// Parallel execution engine: a fork-join thread pool and ParallelFor.
//
// The construction phase (the n x l pivot-table fill, the HF/HFI scoring
// loops) and batch query workloads are embarrassingly parallel, but the
// paper's cost accounting demands *exact* compdists totals and this
// repository additionally promises bit-identical results at any thread
// count.  The engine therefore stays deliberately simple:
//
//   - Fork-join, no work stealing: Dispatch(slots, fn) runs fn(slot) for
//     each slot -- slot 0 on the calling thread, the rest on dedicated
//     workers -- and returns after all complete.  Every parallel region
//     is a single barrier; there is no task queue whose drain order could
//     leak into results.
//   - Fixed arithmetic partitioning: ParallelFor splits [0, n) into one
//     contiguous chunk per slot.  Which thread runs a chunk never matters
//     because bodies write only to element-indexed or slot-indexed state;
//     reductions are combined in ascending slot order so first-wins
//     tie-breaks match the serial loop.
//   - Counters stay non-atomic: workers count into per-slot PerfCounters
//     shards, folded into the owner's counters at the barrier (see
//     CounterScope / FoldCounters in src/core/counters.h).
//
// The pool size defaults to PMI_THREADS (validated) or the hardware
// concurrency; a pool of size 1 runs every region inline, making the
// serial path the literal special case of the parallel one.

#ifndef PMI_CORE_THREAD_POOL_H_
#define PMI_CORE_THREAD_POOL_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pmi {

/// Fork-join worker pool.  One instance is shared process-wide via
/// Global(); benchmarks reconfigure it with SetGlobalThreads.
class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the caller of Dispatch is the
  /// remaining execution slot).  `threads` of 0 or 1 spawns none.
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Execution slots available to Dispatch (workers + the caller).
  unsigned size() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// Runs fn(slot) for every slot in [0, slots) -- slot 0 on the calling
  /// thread -- and returns when all invocations have finished.  `slots`
  /// must not exceed size().  Concurrent top-level Dispatch calls (e.g.
  /// two application threads issuing batch queries against *distinct*
  /// indexes through the shared Global() pool) serialize on an internal
  /// mutex -- each region still runs fully parallel, the regions just run
  /// one after another.  (Queries never write their index, so any number
  /// of threads may query one MetricIndex; its updates -- Build, Insert,
  /// Remove, LoadState -- are externally synchronized, since they write
  /// its cost counters.)  Not reentrant: fn must not call Dispatch on the
  /// same pool.
  void Dispatch(unsigned slots, const std::function<void(unsigned)>& fn);

  /// Non-blocking Dispatch: runs the region if the pool is free, returns
  /// false untouched if another region currently holds it.  Callers that
  /// can execute the work inline (every partitioning-invariant region)
  /// use this so concurrent readers degrade to inline execution instead
  /// of queueing on the region lock.
  bool TryDispatch(unsigned slots, const std::function<void(unsigned)>& fn);

  /// PMI_THREADS if set to a valid positive integer (a warning goes to
  /// stderr otherwise), else std::thread::hardware_concurrency(), else 1.
  static unsigned DefaultThreads();

  /// The process-wide pool, created on first use with DefaultThreads().
  static ThreadPool& Global();

  /// Replaces the global pool with one of `threads` slots (0 = back to
  /// DefaultThreads()).  Call only between parallel regions -- e.g. the
  /// benchmark harness sweeping thread counts.
  static void SetGlobalThreads(unsigned threads);

 private:
  void WorkerLoop(unsigned slot);
  /// Region body shared by Dispatch/TryDispatch; caller holds
  /// dispatch_mu_.
  void DispatchLocked(unsigned slots, const std::function<void(unsigned)>& fn);

  std::mutex dispatch_mu_;  // serializes whole regions (one at a time)
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(unsigned)>* job_ = nullptr;  // valid during a region
  unsigned job_slots_ = 0;
  unsigned running_ = 0;     // workers still inside the current job
  uint64_t generation_ = 0;  // bumped per Dispatch; wakes the workers
  bool stop_ = false;
  std::vector<std::thread> workers_;  // worker i serves slot i + 1
};

/// Splits [0, n) into one contiguous chunk per execution slot -- chunk s
/// is [n*s/slots, n*(s+1)/slots) -- and runs body(begin, end, slot) on
/// each, returning after all complete.  The body may write only to
/// element-indexed state (each element belongs to exactly one chunk) and
/// slot-indexed scratch such as PerfCounters shards; under that contract
/// results are bit-identical at any thread count.  n of 0 or 1 slot runs
/// the body inline on the calling thread.
template <typename Body>
void ParallelFor(ThreadPool& pool, size_t n, Body&& body) {
  if (n == 0) return;
  const unsigned slots =
      static_cast<unsigned>(std::min<size_t>(pool.size(), n));
  if (slots <= 1) {
    body(size_t{0}, n, 0u);
    return;
  }
  const std::function<void(unsigned)> task = [&](unsigned s) {
    const size_t begin = n * s / slots;
    const size_t end = n * (s + 1) / slots;
    if (begin < end) body(begin, end, s);
  };
  pool.Dispatch(slots, task);
}

/// Partitioning helper of the batch query engine: runs body(begin, end)
/// over one contiguous chunk of [0, n) per execution slot of the global
/// pool (a batch of one runs inline without touching Global(), so
/// processes that only issue single queries stay worker-thread-free).
/// Unlike ParallelFor the body receives no slot id: the batch engine
/// attributes every count to element-indexed per-query state, so
/// slot-indexed scratch never enters the picture and results cannot
/// depend on which thread ran a chunk.  The block-major engine
/// parallelizes over *query* chunks and keeps the block loop inside each
/// chunk -- a blocks x queries tiling where each worker streams the pivot
/// table once for its whole query subset -- because the MkNNQ
/// shrinking-radius chain makes a query's blocks sequentially dependent
/// while distinct queries stay independent.  Pool contention degrades
/// gracefully: the region is attempted with TryDispatch, and when another
/// region holds the pool (e.g. several reader threads batch-querying one
/// published snapshot) the chunk loop runs inline on the calling thread
/// instead of queueing -- legal because results are
/// partitioning-invariant by the body contract.
template <typename Body>
void ParallelQueryChunks(size_t n, Body&& body) {
  if (n == 0) return;
  if (n > 1) {
    ThreadPool& pool = ThreadPool::Global();
    const unsigned slots =
        static_cast<unsigned>(std::min<size_t>(pool.size(), n));
    if (slots > 1) {
      const std::function<void(unsigned)> task = [&](unsigned s) {
        const size_t begin = n * s / slots;
        const size_t end = n * (s + 1) / slots;
        if (begin < end) body(begin, end);
      };
      if (pool.TryDispatch(slots, task)) return;
    }
  }
  body(size_t{0}, n);
}

}  // namespace pmi

#endif  // PMI_CORE_THREAD_POOL_H_
