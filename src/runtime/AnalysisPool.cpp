//===- runtime/AnalysisPool.cpp --------------------------------------------=//

#include "runtime/AnalysisPool.h"

#include <chrono>

using namespace gaia;

AnalysisPool::AnalysisPool(PoolOptions O) : Options(std::move(O)) {
  uint32_t N = Options.Workers;
  if (N == 0) {
    N = std::thread::hardware_concurrency();
    if (N == 0)
      N = 1;
  }
  Threads.reserve(N);
  for (uint32_t I = 0; I != N; ++I)
    Threads.emplace_back([this, I] { workerLoop(I); });
}

AnalysisPool::~AnalysisPool() {
  {
    std::lock_guard<std::mutex> L(M);
    Stopping = true;
  }
  WorkCV.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

JobOutcome AnalysisPool::runOne(const AnalysisJob &Job, uint32_t WorkerIndex,
                                size_t JobIndex) const noexcept {
  try {
    AnalyzerOptions JobOpts = Options.Opts;
    JobOpts.Shared = Options.Shared;
    JobOutcome O = runContainedJob(Job, JobOpts, Options.Resilience.get(),
                                   static_cast<uint64_t>(JobIndex) * 251);
    O.Worker = WorkerIndex;
    return O;
  } catch (...) {
    // The per-batch option copy above is the only code outside
    // runContainedJob's own containment; an allocator failure there
    // still must not reach workerLoop.
    JobOutcome O;
    O.Worker = WorkerIndex;
    O.Result.Fail = FailKind::Exception;
    O.Result.Error = "exception escaped the job runner";
    O.Result.Converged = false;
    return O;
  }
}

void AnalysisPool::workerLoop(uint32_t WorkerIndex) {
  for (;;) {
    std::shared_ptr<Batch> B;
    {
      std::unique_lock<std::mutex> L(M);
      // Wake for shutdown or for a batch that still has unclaimed jobs;
      // a drained batch keeps workers parked until run() retires it.
      WorkCV.wait(L, [&] {
        return Stopping ||
               (Cur && Cur->Next.load(std::memory_order_relaxed) <
                           Cur->Jobs.size());
      });
      if (Stopping)
        return;
      B = Cur;
    }
    for (;;) {
      size_t I = B->Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= B->Jobs.size())
        break;
      B->Out[I] = runOne(B->Jobs[I], WorkerIndex, I);
      {
        std::lock_guard<std::mutex> L(M);
        if (++B->Completed == B->Jobs.size())
          DoneCV.notify_one();
      }
    }
  }
}

std::vector<JobOutcome> AnalysisPool::run(const std::vector<AnalysisJob> &Jobs,
                                          BatchStats *Stats) {
  std::vector<JobOutcome> Out(Jobs.size());
  auto Start = std::chrono::steady_clock::now();
  if (!Jobs.empty()) {
    auto B = std::make_shared<Batch>();
    B->Jobs = Jobs;
    B->Out.resize(Jobs.size());
    {
      std::lock_guard<std::mutex> L(M);
      Cur = B;
    }
    WorkCV.notify_all();
    {
      std::unique_lock<std::mutex> L(M);
      DoneCV.wait(L, [&] { return B->Completed == B->Jobs.size(); });
      Cur = nullptr;
      // Completed workers are parked; only the Out slots move. A
      // straggler still holding the batch reads Jobs.size() and the
      // atomic claim index, never Out, so the move is unobserved.
      Out = std::move(B->Out);
    }
  }
  double Wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();

  if (Stats) {
    BatchStats S;
    S.Jobs = static_cast<uint32_t>(Jobs.size());
    S.WallSeconds = Wall;
    S.JobsPerSecond = Wall > 0 ? double(Jobs.size()) / Wall : 0.0;
    for (size_t I = 0; I != Out.size(); ++I) {
      const JobOutcome &O = Out[I];
      S.SharedHits += O.Result.Stats.OpCacheSharedHits;
      S.DeltaHits += O.Result.Stats.OpCacheHits;
      S.Misses += O.Result.Stats.OpCacheMisses;
      S.InternSharedHits += O.Result.Stats.InternSharedHits;
      S.AllOk = S.AllOk && O.Result.Ok;
      S.AllConverged = S.AllConverged && O.Result.Converged;
      if (!O.Result.Ok) {
        ++S.Failed;
        if (S.FirstError.empty())
          S.FirstError = Jobs[I].Key + ": " + O.Result.Error;
      } else if (O.Result.Degraded) {
        ++S.Degraded;
      } else if (O.Rung == RecoveryRung::ColdRetry) {
        ++S.Recovered;
      }
    }
    *Stats = S;
  }
  return Out;
}
