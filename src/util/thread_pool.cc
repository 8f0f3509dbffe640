#include "util/thread_pool.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <utility>

#include "obs/stats.h"
#include "util/logging.h"

namespace levelheaded {
namespace {
// Nested ParallelChunks calls (e.g. a parallel BLAS kernel invoked from a
// parallel WCOJ loop) run inline on the calling thread: a worker inside one
// job's chunk must not join another job, or a slot could run twice.
thread_local bool t_in_parallel_region = false;

// Pool-worker slot of the current thread, or -1 for external threads.
// Submit() records it so task execution can tell a steal (task ran on a
// different slot than it was submitted from) from a local run.
thread_local int t_worker_slot = -1;

// The global pool lives behind a unique_ptr (instead of a plain Meyers
// static) so SetGlobalThreadsForTesting can join and replace it; the static
// local still destroys the final pool at process exit, keeping the clean
// sanitizer shutdown from the singleton design.
std::unique_ptr<ThreadPool>& GlobalPoolSlot() {
  static std::unique_ptr<ThreadPool> pool;  // lint: allow(global-state)
  return pool;
}

// Published pointer for the lock-free Global() fast path. Nested parallel
// kernels (BLAS-from-WCOJ, trie builds) call Global() from inside chunks,
// where engine locks may be held; taking the slot mutex there would both
// invert the lock order — kGlobalPool ranks below the pool lock because
// replacing the pool joins workers under ThreadPool::mu_ — and serialize
// every kernel on one global mutex.
std::atomic<ThreadPool*>& GlobalPoolPtr() {
  static std::atomic<ThreadPool*> pool{nullptr};
  return pool;
}

// Best-effort CPU pinning for shard lanes (src/shard). A failed pin (cpu
// offline, cgroup-restricted affinity mask) is ignored: pinning is a
// locality optimization, never a correctness requirement.
void PinCurrentThread(int cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)cpu;
#endif
}

// Guards pool creation/replacement only; never on the query path.
Mutex& GlobalPoolMutex() {
  static Mutex mu{LockRank::kGlobalPool};  // lint: allow(global-state) unguarded(guards the init/replace phase of GlobalPoolSlot, not a field)
  return mu;
}
}  // namespace

ThreadPool::ThreadPool(int num_threads) : ThreadPool(num_threads, {}) {}

ThreadPool::ThreadPool(int num_threads, std::vector<int> pin_cpus)
    : pin_cpus_(std::move(pin_cpus)) {
  if (num_threads <= 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  wake_cv_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void ThreadPool::WorkerLoop(int slot) {
  t_worker_slot = slot;
  if (static_cast<size_t>(slot) < pin_cpus_.size()) {
    PinCurrentThread(pin_cpus_[slot]);
  }
  ParallelJob* job = nullptr;  // the job this worker last ran a slice of
  while (true) {
    Task task;
    {
      MutexLock lock(&mu_);
      if (job != nullptr && --job->active_workers == 0) done_cv_.NotifyAll();
      job = nullptr;
      // Tasks take priority over job chunks: tasks are sub-work spawned from
      // inside running chunks, so draining them first bounds the queue and
      // unblocks waiters helping on TaskGroup::Wait.
      while (!shutdown_ && tasks_.empty() && (job = PickJob()) == nullptr) {
        wake_cv_.Wait(&mu_);
      }
      if (shutdown_) return;
      if (job != nullptr) {
        ++job->active_workers;
      } else {
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
    }
    if (job == nullptr) {
      RunTask(task, slot);
      continue;
    }
    RunJobSlice(job, slot);
  }
}

void ThreadPool::RunTask(Task& task, int slot) {
  // Tasks count as a parallel region, so a ParallelChunks issued from one
  // runs inline. Save and restore rather than set/clear: helping threads run
  // tasks from inside regions that are themselves parallel.
  const bool saved_region = t_in_parallel_region;
  t_in_parallel_region = true;
  {
    // Install the *submitting* query's stats hook for the duration of the
    // task: a thread helping on TaskGroup::Wait may run another query's
    // task, and its increments must land in that query's counters.
    obs::StatsScope stats_scope(task.stats);
    task.fn();
    if (slot != task.submitter_slot && task.stats != nullptr) {
      task.stats->CountTaskStolen(1);
    }
  }
  t_in_parallel_region = saved_region;
  // acq_rel: the release half publishes this task's side effects to the
  // acquire load in Wait(); the acquire half orders the "last task" winner
  // after every other task's release. The notify is taken under mu_ so it
  // cannot fire between Wait's predicate check and its sleep.
  if (task.group->pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    MutexLock lock(&mu_);
    task_cv_.NotifyAll();
  }
}

void ThreadPool::Submit(TaskGroup* group, std::function<void()> fn) {
  LH_DCHECK(group->pool_ == this);
  const int submitter = t_worker_slot >= 0 ? t_worker_slot : num_threads();
  obs::ExecStats* stats = obs::ActiveStats();
  // Relaxed: the count must only reach the running task before that task's
  // matching fetch_sub, which same-variable atomic ordering guarantees; the
  // task's *payload* is published by the mu_ hand-off below.
  group->pending_.fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock lock(&mu_);
    tasks_.push_back(Task{std::move(fn), group, submitter, stats});
  }
  wake_cv_.NotifyOne();
  if (stats != nullptr) stats->CountTaskSpawned(1);
}

ThreadPool::TaskGroup::~TaskGroup() {
  // Acquire pairs with the final fetch_sub's release so the destructor
  // (and whatever owns the group's captured state) sees all task effects.
  LH_CHECK_EQ(pending_.load(std::memory_order_acquire), 0);
}

void ThreadPool::TaskGroup::Wait() {
  const int slot =
      t_worker_slot >= 0 ? t_worker_slot : pool_->num_threads();
  pool_->mu_.Lock();
  // Acquire: pairs with the final task's acq_rel fetch_sub in RunTask,
  // making every task's writes visible once the count reads zero.
  while (pending_.load(std::memory_order_acquire) > 0) {
    if (!pool_->tasks_.empty()) {
      Task task = std::move(pool_->tasks_.front());
      pool_->tasks_.pop_front();
      pool_->mu_.Unlock();
      pool_->RunTask(task, slot);
      pool_->mu_.Lock();
    } else {
      // All of this group's remaining tasks are running on other threads;
      // task_cv_ fires as each one completes.
      pool_->task_cv_.Wait(&pool_->mu_);
    }
  }
  pool_->mu_.Unlock();
}

// The oldest live job with unclaimed chunks, or nullptr. Younger regions are
// not starved: each one's caller always works on its own job.
ThreadPool::ParallelJob* ThreadPool::PickJob() {
  for (ParallelJob* job : jobs_) {
    // Relaxed: a hint; a stale cursor only sends a worker into a drained job.
    if (job->next.load(std::memory_order_relaxed) < job->end) return job;
  }
  return nullptr;
}

void ThreadPool::RunJobSlice(ParallelJob* job, int slot) {
  const int64_t grain = job->grain;
  t_in_parallel_region = true;
  uint64_t chunks = 0;
  {
    // Run chunks under the driving query's stats hook so worker-side kernel
    // counters attribute to the query that issued the ParallelChunks, not to
    // whatever the worker thread last collected for.
    obs::StatsScope stats_scope(job->stats);
    while (true) {
      // Relaxed: next is a pure claim ticket — no data is published through
      // it; the job payload was made visible by the mu_ job registration.
      int64_t start = job->next.fetch_add(grain, std::memory_order_relaxed);
      if (start >= job->end) break;
      int64_t stop = std::min(start + grain, job->end);
      (*job->fn)(slot, start, stop);
      ++chunks;
    }
    if (chunks > 0 && job->stats != nullptr) {
      job->stats->CountThreadPoolChunk(chunks);
    }
  }
  t_in_parallel_region = false;
}

void ThreadPool::ParallelChunks(
    int64_t begin, int64_t end, int64_t grain,
    const std::function<void(int, int64_t, int64_t)>& fn) {
  if (begin >= end) return;
  LH_CHECK_GT(grain, 0);
  const int64_t total = end - begin;
  // Small jobs run inline (dispatch overhead would dominate); so do nested
  // parallel regions, whose thread already holds a slot in an outer job.
  if (total <= grain || workers_.empty() || t_in_parallel_region) {
    fn(num_threads(), begin, end);
    if (obs::ExecStats* stats = obs::ActiveStats()) {
      stats->CountThreadPoolChunk(1);
    }
    return;
  }
  ParallelJob job;
  // Relaxed: the job is not yet visible to any worker; publication happens
  // via the mu_ critical section below.
  job.next.store(begin, std::memory_order_relaxed);
  job.end = end;
  job.grain = grain;
  job.fn = &fn;
  job.stats = obs::ActiveStats();

  {
    MutexLock lock(&mu_);
    jobs_.push_back(&job);
    ++jobs_started_;
  }
  wake_cv_.NotifyAll();

  // The caller always works on its own job, so a region never waits for
  // another query's region; its slot num_threads() is no worker's.
  RunJobSlice(&job, num_threads());

  // No worker joins a drained job; wait out those still inside it.
  MutexLock lock(&mu_);
  while (job.active_workers != 0) done_cv_.Wait(&mu_);
  jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
}

ThreadPool::JobCounts ThreadPool::job_counts() {
  MutexLock lock(&mu_);
  return {static_cast<int>(jobs_.size()), jobs_started_};
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                             const std::function<void(int, int64_t)>& fn) {
  ParallelChunks(begin, end, grain,
                 [&fn](int slot, int64_t lo, int64_t hi) {
                   for (int64_t i = lo; i < hi; ++i) fn(slot, i);
                 });
}

ThreadPool& ThreadPool::Global() {
  // Lock-free fast path — see GlobalPoolPtr. Acquire pairs with the
  // release store below so the caller sees the fully constructed pool.
  if (ThreadPool* pool = GlobalPoolPtr().load(std::memory_order_acquire)) {
    return *pool;
  }
  MutexLock lock(&GlobalPoolMutex());
  auto& slot = GlobalPoolSlot();
  if (!slot) {
    int num_threads = 0;  // 0 = hardware concurrency
    if (const char* env = std::getenv("LH_THREADS")) {
      const int parsed = std::atoi(env);
      if (parsed > 0) num_threads = parsed;
    }
    slot = std::make_unique<ThreadPool>(num_threads);
  }
  GlobalPoolPtr().store(slot.get(), std::memory_order_release);
  return *slot;
}

void ThreadPool::SetGlobalThreadsForTesting(int num_threads) {
  MutexLock lock(&GlobalPoolMutex());
  auto& slot = GlobalPoolSlot();
  // Unpublish before joining: a racing Global() must fall through to the
  // slot mutex rather than return a pool that is being destroyed. (Test-only
  // contract: no in-flight queries, so no one still holds the old pointer.)
  GlobalPoolPtr().store(nullptr, std::memory_order_release);
  slot.reset();  // join the old pool before the new one spins up
  slot = std::make_unique<ThreadPool>(num_threads);
  GlobalPoolPtr().store(slot.get(), std::memory_order_release);
}

}  // namespace levelheaded
