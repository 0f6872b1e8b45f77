// Persistent worker-thread pool with re-entrant, concurrent job dispatch
// and a low-latency spin-then-park wait path.
//
// The paper parallelizes with OpenMP static scheduling over a PTn x PTk
// logical thread grid (Section 6). We use an explicit pool so the thread
// count and the (task id -> work slice) mapping are fully controlled by
// the library, which is what the Eq. 5/6 thread-mapping model requires.
//
// Dispatch protocol (see thread_pool.cpp for the memory-ordering
// argument): a submitter claims one of a fixed set of job slots, publishes
// the task function, opens the slot's claim cursor, and bumps an atomic
// generation counter; workers spin (pause/yield) on the generation for a
// bounded budget before parking on a condition variable, then drain task
// indices from every open job through a lock-free epoch-tagged cursor.
// Because jobs live in independent slots, run() is fully re-entrant:
// several caller threads can dispatch at once and their jobs execute
// CONCURRENTLY, with idle workers draining whichever job still has
// unclaimed tasks — the property the scheduler-aware graph executor uses
// to let one convolution's stealers soak cores another branch left idle.
// A back-to-back stream of convolutions pays no mutex round-trips and no
// OS wakeups per call.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/aligned_buffer.h"

namespace ndirect {

/// Fixed-size pool. `run(n, fn)` invokes `fn(tid)` for tid in [0, n) with
/// at most `size()` OS threads; task counts beyond the pool size are
/// executed by reusing workers (oversubscription, used by the SMT
/// experiment). Which OS thread executes which tid is unspecified: tasks
/// are claimed dynamically so concurrent jobs can share the workers.
class ThreadPool {
 public:
  /// `spin_iters` bounds the busy-wait budget (in pause iterations)
  /// before a waiter parks on a condition variable. -1 reads
  /// NDIRECT_POOL_SPIN (default kDefaultSpinIters); 0 parks immediately,
  /// reproducing the seed's mutex+condvar behaviour for A/B benches.
  explicit ThreadPool(std::size_t num_threads, long spin_iters = -1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size() + 1; }

  /// Busy-wait budget in effect (pause iterations before parking).
  long spin_iters() const { return spin_iters_; }

  /// Jobs handed to the workers so far: run() calls that did not execute
  /// inline on their caller. Tells a caller which pool ran its work.
  std::uint64_t dispatched_jobs() const {
    return generation_.load(std::memory_order_relaxed);
  }

  /// Run fn(tid) for every tid in [0, num_tasks). Blocks until all done.
  /// The caller participates (it claims tasks like a worker). fn must not
  /// throw. Thread-safe AND re-entrant: concurrent run() calls from
  /// different caller threads execute concurrently, sharing the worker
  /// threads; each caller returns when exactly its own tasks finished.
  void run(std::size_t num_tasks, const std::function<void(std::size_t)>& fn);

  /// Static-partitioned parallel loop over [0, count): each of the pool's
  /// threads receives one contiguous chunk. fn(begin, end) per chunk.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// Work-stealing parallel loop over [0, count): the range is cut into
  /// chunks of `grain` items, seeded contiguously across the pool's
  /// threads (same initial assignment as parallel_for), and exhausted
  /// threads steal remaining chunks from the back of other threads'
  /// ranges. fn(begin, end) per claimed chunk, so skewed per-item cost
  /// and noisy cores no longer pin the loop to the slowest thread.
  /// Chunk claim order is nondeterministic; fn must tolerate any order.
  void parallel_for_dynamic(
      std::size_t count, std::size_t grain,
      const std::function<void(std::size_t, std::size_t)>& fn);

  /// Process-wide pool sized from NDIRECT_THREADS or hardware concurrency.
  static ThreadPool& global();

  static constexpr long kDefaultSpinIters = 4096;

  /// Jobs that can be in flight at once; further concurrent run() calls
  /// fall back to inline execution on their caller (correct, undegraded
  /// only in pathological fan-outs).
  static constexpr int kMaxConcurrentJobs = 8;

 private:
  // Claim-cursor packing: the low 16 bits of `word` are the next
  // unclaimed task index, the upper 48 bits an epoch (odd = job open or
  // being armed, even = slot free). Arm/retire bump the epoch, so a
  // claim CAS from a previous job can never land on a reused slot.
  static constexpr std::uint32_t kClosedCursor = 0xFFFF;
  static constexpr std::size_t kMaxTasksPerJob = kClosedCursor - 1;

  /// One in-flight run(): an epoch-tagged claim cursor plus a completion
  /// countdown, on its own cache line so claim traffic on one job does
  /// not bounce the others.
  /// (num_tasks/fn are atomics only because a worker holding a stale
  /// cursor snapshot may read them while the slot's next submitter
  /// re-arms; the values it reads are discarded when its claim CAS fails
  /// on the epoch. Publication ordering rides the word's release store.)
  struct alignas(kCacheLineBytes) JobSlot {
    std::atomic<std::uint64_t> word{0};  ///< epoch:48 | next-task:16
    std::atomic<std::uint32_t> pending{0};  ///< tasks not yet completed
    std::atomic<std::uint32_t> num_tasks{0};
    std::atomic<const std::function<void(std::size_t)>*> fn{nullptr};
  };

  void worker_loop(std::size_t worker_index);
  JobSlot* acquire_slot();
  /// Claim and execute one task of `job` if any remains. `epoch` != 0
  /// restricts the claim to that job instance (submitter side); 0
  /// accepts whatever job currently occupies the slot (worker side).
  bool claim_and_run(JobSlot& job, std::uint64_t epoch);
  void finish_task(JobSlot& job);
  void wait_job(JobSlot& job);

  std::vector<std::thread> workers_;
  std::array<JobSlot, kMaxConcurrentJobs> jobs_;
  long spin_iters_ = kDefaultSpinIters;

  /// Bumped once per dispatched job; the only thing workers wait on.
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<bool> stop_{false};

  // Park/wake fallback for workers that exhausted their spin budget.
  std::mutex wake_mutex_;
  std::condition_variable cv_start_;
  std::atomic<int> num_parked_{0};

  // Park/wake fallback for submitters waiting on their job's completion.
  std::mutex done_mutex_;
  std::condition_variable cv_done_;
  std::atomic<int> num_waiting_callers_{0};
};

}  // namespace ndirect
