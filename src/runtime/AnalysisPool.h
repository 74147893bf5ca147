//===- runtime/AnalysisPool.h - Concurrent batch-analysis worker pool -----==//
///
/// \file
/// Runs batches of analysis jobs (program x query x options) over a
/// fixed pool of worker threads. Each job is fully independent: it gets
/// its own symbol-table copy, its own mutable delta cache, and (when the
/// pool carries a SharedCache) a read-only view of the frozen shared
/// tier — workers synchronize only on the job queue, never inside an
/// analysis, which is why per-job results are bit-identical to a
/// sequential run regardless of worker count or scheduling.
///
/// The pool's threads are started once and persist across run() calls,
/// so repeated batches (the serving shape: many small request waves)
/// don't pay thread start-up per wave.
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_RUNTIME_ANALYSISPOOL_H
#define GAIA_RUNTIME_ANALYSISPOOL_H

#include "runtime/Resilience.h"
#include "runtime/SharedCache.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace gaia {

struct PoolOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency() (min 1).
  uint32_t Workers = 0;
  /// Frozen shared cache tier every job reads through (may be null: the
  /// batch runs cold, each job building caches from scratch).
  std::shared_ptr<const SharedCache> Shared;
  /// Analyzer configuration applied to every job of a batch.
  AnalyzerOptions Opts;
  /// Optional retry-with-degradation ladder (runtime/Resilience.h),
  /// shared across workers (and poolable across pools). Null = no
  /// retries: a failed job reports its structured failure as-is.
  /// Exception containment is unconditional either way — a worker
  /// thread never dies to a job.
  std::shared_ptr<ResilienceManager> Resilience;
};

// JobOutcome — one finished job — lives in runtime/Resilience.h so the
// whole containment stack (pool, ladder, service) shares one result
// shape.

/// Aggregate figures for one run() call.
struct BatchStats {
  uint32_t Jobs = 0;
  double WallSeconds = 0;
  double JobsPerSecond = 0;
  /// Summed op-cache counters across jobs.
  uint64_t SharedHits = 0; ///< resolved in the frozen shared tier
  uint64_t DeltaHits = 0;  ///< resolved in a job's private delta
  uint64_t Misses = 0;     ///< computed fresh
  uint64_t InternSharedHits = 0;
  bool AllOk = true;
  bool AllConverged = true;
  /// Jobs whose final result (after any ladder) is still a failure.
  uint32_t Failed = 0;
  /// Ok jobs whose result came from a degrading rung (tight budgets or
  /// the widen-to-top floor) rather than the configured analysis.
  uint32_t Degraded = 0;
  /// Ok jobs rescued by a non-degrading retry (the cold rung).
  uint32_t Recovered = 0;
  /// "<job key>: <error>" for the first failed job in job order (empty
  /// when Failed == 0); the bench/gate chain surfaces it.
  std::string FirstError;

  double sharedHitRate() const {
    uint64_t Total = SharedHits + DeltaHits + Misses;
    return Total ? double(SharedHits) / double(Total) : 0.0;
  }
};

/// Fixed worker pool. run() dispatches one batch and blocks until it
/// completes; it is not re-entrant (one batch at a time — callers
/// wanting overlap use several pools).
class AnalysisPool {
public:
  explicit AnalysisPool(PoolOptions Options);
  ~AnalysisPool();

  AnalysisPool(const AnalysisPool &) = delete;
  AnalysisPool &operator=(const AnalysisPool &) = delete;

  uint32_t workers() const { return static_cast<uint32_t>(Threads.size()); }

  /// Runs every job of \p Jobs and returns their outcomes in job order.
  /// Aggregate throughput figures land in \p Stats when non-null.
  std::vector<JobOutcome> run(const std::vector<AnalysisJob> &Jobs,
                              BatchStats *Stats = nullptr);

private:
  /// One dispatched batch. Owns copies of the jobs and the result slots:
  /// a worker that woke for this batch but lost every claim race may
  /// still inspect it after run() has returned and the caller's vectors
  /// are gone, so the batch is kept alive by shared_ptr and owns
  /// everything such a straggler can touch.
  struct Batch {
    std::vector<AnalysisJob> Jobs;
    std::vector<JobOutcome> Out;
    std::atomic<size_t> Next{0}; ///< next unclaimed job index
    size_t Completed = 0;        ///< guarded by the pool mutex
  };

  void workerLoop(uint32_t WorkerIndex);
  /// Thin wrapper over runContainedJob (runtime/Resilience.h): applies
  /// the pool's per-batch options and stamps the worker index. noexcept:
  /// no per-job failure reaches workerLoop (a throw here would take the
  /// whole process down).
  JobOutcome runOne(const AnalysisJob &Job, uint32_t WorkerIndex,
                    size_t JobIndex) const noexcept;

  const PoolOptions Options;
  std::vector<std::thread> Threads;
  std::mutex M;
  std::condition_variable WorkCV; ///< workers wait for a batch
  std::condition_variable DoneCV; ///< run() waits for completion
  std::shared_ptr<Batch> Cur;     ///< guarded by M (claim index is atomic)
  bool Stopping = false;
};

} // namespace gaia

#endif // GAIA_RUNTIME_ANALYSISPOOL_H
