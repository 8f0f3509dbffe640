// Shared-memory parallelism substrate. LevelHeaded parallelizes the
// outermost loop of the generic WCOJ algorithm (the paper's `parfor`
// operator, §III-D) and the MiniBLAS kernels through this pool.

#ifndef LEVELHEADED_UTIL_THREAD_POOL_H_
#define LEVELHEADED_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace levelheaded {

namespace obs {
class ExecStats;
}  // namespace obs

/// Shared grain heuristic for every parallel loop in the engine. Targets a
/// fixed number of chunks so chunk boundaries — which are also the merge
/// boundaries for floating-point partials — depend only on the input
/// cardinality, never on the thread count. That is what keeps query results
/// bit-identical across LH_THREADS settings: more threads change who runs a
/// chunk, not where the chunks are cut.
inline int64_t AdaptiveGrain(int64_t total, int64_t min_grain = 1) {
  constexpr int64_t kTargetChunks = 64;
  const int64_t grain = (total + kTargetChunks - 1) / kTargetChunks;
  return std::max<int64_t>(min_grain, grain);
}

/// A fixed-size worker pool with a blocking ParallelFor.
///
/// Thread-safe for concurrent Submit and ParallelFor/ParallelChunks calls;
/// concurrent parallel regions run side by side, each as its own job.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (defaults to the hardware
  /// concurrency, at least 1).
  explicit ThreadPool(int num_threads = 0);

  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Runs `fn(thread_slot, index)` for every index in [begin, end).
  /// Indices are distributed dynamically in chunks of `grain`.
  /// `thread_slot` is in [0, num_threads()+1) and no two running chunks of
  /// one call share it, letting callers keep per-slot scratch state. The
  /// caller participates (slot num_threads()). Blocks until all are done.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int, int64_t)>& fn);

  /// Chunked variant: runs `fn(thread_slot, chunk_begin, chunk_end)` over
  /// dynamically scheduled chunks.
  void ParallelChunks(
      int64_t begin, int64_t end, int64_t grain,
      const std::function<void(int, int64_t, int64_t)>& fn);

  /// Tracks a batch of tasks submitted via Submit(). Wait() blocks until all
  /// of the group's tasks have finished, *helping*: while waiting it pops and
  /// runs queued tasks (from any group) on the calling thread, so a worker
  /// inside a ParallelChunks chunk can fan out sub-work and wait for it
  /// without deadlocking even when every pool thread is busy.
  ///
  /// A group must be waited (pending reaches zero) before it is destroyed
  /// and before its pool is destroyed.
  class TaskGroup {
   public:
    explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
    ~TaskGroup();
    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    void Wait();

   private:
    friend class ThreadPool;
    ThreadPool* pool_;
    /// Outstanding task count. Atomic rather than guarded by pool_->mu_:
    /// the increment (Submit) and decrement (RunTask) need no lock, and
    /// TSA cannot match a `pool_->mu_` guard against the `this->mu_`
    /// capability held at those sites anyway. The release half of the
    /// final acq_rel fetch_sub publishes every task's side effects to the
    /// acquire load in Wait().
    std::atomic<int64_t> pending_{0};
  };

  /// Enqueues `fn` to run on any pool thread (or on a thread that helps while
  /// waiting on the group). Unlike ParallelChunks this never blocks and is
  /// legal from inside a parallel region — it is the nesting escape hatch the
  /// skew splitter uses. Tasks run with the nested-region flag set, so a
  /// ParallelChunks call made from inside a task executes inline.
  void Submit(TaskGroup* group, std::function<void()> fn);

  /// Process-wide default pool (created on first use). Thread count comes
  /// from the LH_THREADS environment variable when set (and positive),
  /// otherwise the hardware concurrency.
  static ThreadPool& Global();

  /// Replaces the global pool with one of `num_threads` workers, joining the
  /// old pool first. Test-only: must not race with in-flight queries.
  static void SetGlobalThreadsForTesting(int num_threads);

  /// Parallel regions registered with the workers: live now, and since
  /// construction. Small and nested regions run inline and count in neither.
  struct JobCounts { int live = 0; uint64_t started = 0; };
  JobCounts job_counts();

 private:
  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
    int submitter_slot = -1;
    /// The submitting query's stats hook, captured at Submit() time and
    /// re-installed (via StatsScope) on whichever thread runs the task, so
    /// counters land in the right query even when a helping thread runs a
    /// task from another query.
    obs::ExecStats* stats = nullptr;
  };

  void WorkerLoop(int slot);
  void RunTask(Task& task, int slot);

  struct ParallelJob {
    std::atomic<int64_t> next{0};
    int64_t end = 0;
    int64_t grain = 1;
    const std::function<void(int, int64_t, int64_t)>* fn = nullptr;
    /// Workers in RunJobSlice (guarded by mu_); the job is listed until 0.
    int active_workers = 0;
    /// Driving query's stats hook (see Task::stats).
    obs::ExecStats* stats = nullptr;
  };

  void RunJobSlice(ParallelJob* job, int slot);
  ParallelJob* PickJob() LH_REQUIRES(mu_);

  std::vector<std::thread> workers_;
  Mutex mu_{LockRank::kPool};
  CondVar wake_cv_;  // workers: new tasks / new job / shutdown
  CondVar done_cv_;  // callers: a job's active_workers reached zero
  CondVar task_cv_;  // signaled as group tasks finish
  std::deque<Task> tasks_ LH_GUARDED_BY(mu_);
  std::vector<ParallelJob*> jobs_ LH_GUARDED_BY(mu_);  // oldest first
  uint64_t jobs_started_ LH_GUARDED_BY(mu_) = 0;
  bool shutdown_ LH_GUARDED_BY(mu_) = false;
};

}  // namespace levelheaded

#endif  // LEVELHEADED_UTIL_THREAD_POOL_H_
