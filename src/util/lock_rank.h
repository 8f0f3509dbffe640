// Runtime lock-rank (lock hierarchy) checker (DESIGN.md §14).
//
// The static half of the locking discipline is Clang Thread Safety
// Analysis (util/thread_annotations.h): it proves guarded fields are only
// touched under their mutex, but it does not order locks, so it cannot see
// an ABBA deadlock. The runtime half is this checker: every util::Mutex /
// util::SharedMutex carries a LockRank, and a thread may only acquire a
// mutex whose rank is STRICTLY GREATER than every rank it already holds.
// Any execution that violates the order aborts immediately with both the
// offending rank and the full held-rank stack — a deterministic
// diagnostic, unlike an actual deadlock which needs the unlucky
// interleaving to manifest.
//
// Enabled exactly where LH_DCHECK is (debug, LH_HARDENED, and therefore
// all sanitizer presets); in release builds NoteAcquire/NoteRelease are
// empty inlines and util::Mutex stores no rank, so the checker is a
// zero-cost no-op (tests/lock_rank_test.cc asserts both halves).
//
// The rank table below is the single source of truth for the engine's
// lock ordering; the same table is documented with its rationale in
// DESIGN.md §14. Gaps between values leave room for future locks (e.g.
// ingestion epochs) without renumbering.

#ifndef LEVELHEADED_UTIL_LOCK_RANK_H_
#define LEVELHEADED_UTIL_LOCK_RANK_H_

#include "util/logging.h"

namespace levelheaded {

/// Acquisition order: a mutex may only be acquired while all held mutexes
/// have strictly smaller ranks. Listed outermost-first.
enum class LockRank : int {
  /// server::RequestQueue::mu_ — accept/worker handoff. Outermost: held
  /// only around queue ops, released before a request is served, but
  /// ranked first so serving code can never feed back into the queue lock.
  kServerQueue = 10,
  /// The global-thread-pool slot mutex (init/replace only; the read path
  /// is lock-free). Below the pool locks because replacing the pool joins
  /// worker threads, which takes ThreadPool::mu_.
  kGlobalPool = 20,
  /// ThreadPool::mu_ — task deque + live-job list. Held only around queue
  /// and job-list operations, never across a chunk or a task.
  kPool = 40,
  /// NodeExec::scratch_mu_ — chunk-run worker freelist. Acquired briefly at
  /// chunk start/end from inside parallel regions; nothing is ever
  /// acquired while it is held.
  kExecScratch = 45,
  /// TrieCache::flight_mu_ — single-flight build registry. Never held
  /// across a build or another cache lock.
  kCacheFlight = 50,
  /// TrieCache::evict_mu_ — serializes eviction scans; taken before the
  /// shard locks the scan iterates.
  kCacheEvict = 60,
  /// TrieCache::Shard::mu — per-shard hash map. Innermost cache lock.
  kCacheShard = 70,
  /// Executor abort mutexes (first-error capture). Taken from inside
  /// parallel chunks.
  kExecAbort = 80,
  /// obs::Trace::mu_ — span buffer.
  kTrace = 90,
  /// obs::SlowQueryLog::mu_ — slow-query ring buffer.
  kSlowQueryLog = 100,
  /// Default for mutexes that never nest inside engine locks and take no
  /// locks themselves (tests, tools). Innermost: with kLeaf held nothing
  /// else can be acquired, not even another kLeaf.
  kLeaf = 1000,
};

/// Stable lowercase name for diagnostics ("pool", "cache_shard"...).
const char* LockRankName(LockRank rank);

// The checker rides the LH_DCHECK gate (util/logging.h): on in debug and
// hardened/sanitizer builds, compiled out (empty inlines, no rank storage)
// when NDEBUG is set without LH_HARDENED.
#if LH_DCHECK_ENABLED
#define LH_LOCK_RANK_ENABLED 1
#else
#define LH_LOCK_RANK_ENABLED 0
#endif

namespace lock_rank {

#if LH_LOCK_RANK_ENABLED

/// Called by util::Mutex before blocking on the underlying mutex. Aborts
/// (after printing the offending rank and the held stack) unless `rank` is
/// strictly greater than every rank this thread holds.
void NoteAcquire(LockRank rank);

/// Called by util::Mutex after unlocking. Removes the innermost held entry
/// of `rank`; release order need not be LIFO (TaskGroup::Wait interleaves
/// unlock/relock cycles). Aborts if `rank` is not held at all.
void NoteRelease(LockRank rank);

/// Number of ranks the calling thread currently holds (test hook).
int HeldCount();

#else

inline void NoteAcquire(LockRank) {}
inline void NoteRelease(LockRank) {}
inline int HeldCount() { return 0; }

#endif  // LH_LOCK_RANK_ENABLED

}  // namespace lock_rank
}  // namespace levelheaded

#endif  // LEVELHEADED_UTIL_LOCK_RANK_H_
