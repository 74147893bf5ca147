//===- bench/BenchUtil.h - Shared helpers for the table harnesses ---------==//
///
/// \file
/// Helpers shared by the benchmark binaries: run a benchmark program
/// under a domain/configuration, print paper-vs-measured rows, and — for
/// the serving-layer harnesses (service_soak, chaos_soak) — the shared
/// request mix, the queue-free capacity curve, and JSON escaping.
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_BENCH_BENCHUTIL_H
#define GAIA_BENCH_BENCHUTIL_H

#include "core/Analyzer.h"
#include "core/Report.h"
#include "programs/Benchmarks.h"
#include "programs/PaperData.h"
#include "runtime/AnalysisService.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace gaia {

/// Analyzes \p B with the given options; prints an error and aborts on
/// failure (the bench harness runs on known-good inputs).
inline AnalysisResult runBenchmark(const BenchmarkProgram &B,
                                   AnalyzerOptions Opts = {}) {
  AnalysisResult R = analyzeProgram(B.Source, B.GoalSpec, Opts);
  if (!R.Ok) {
    std::fprintf(stderr, "error: %s: %s\n", B.Key.c_str(),
                 R.Error.c_str());
    std::abort();
  }
  return R;
}

inline void printHeaderBlock(const char *Table, const char *What) {
  std::printf("\n=== %s: %s ===\n", Table, What);
  std::printf("(paper values from a Sun SPARC-10 and the original "
              "benchmark sources; ours are reconstructions — compare "
              "shapes, not absolutes; see DESIGN.md, \"The benchmark "
              "corpus\")\n\n");
}

/// The distinct (program, goal) queries of the serving workload: each
/// Section 9 program's published goal plus variants specializing the
/// first argument — the repeated-query shape a type-analysis service
/// sees. Shared by bench/service_soak.cpp and bench/chaos_soak.cpp, so
/// the capacity curve, the overload legs and the chaos batch run the
/// same mix.
inline std::vector<AnalysisJob> serviceQueryMix() {
  std::vector<AnalysisJob> Queries;
  for (const BenchmarkProgram &B : table123Suite()) {
    Queries.push_back({B.Key, B.Source, B.GoalSpec});
    for (const char *Spec : {"list", "int"}) {
      std::string Goal = B.GoalSpec;
      size_t Pos = Goal.find("any");
      if (Pos == std::string::npos)
        continue;
      Goal.replace(Pos, 3, Spec);
      Queries.push_back({B.Key + "#" + Spec, B.Source, Goal});
    }
  }
  return Queries;
}

/// Minimal JSON string escaping for error-message fields (parser
/// messages can carry quotes and backslashes from source excerpts).
inline std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

/// One point of the queue-free capacity curve: \p Workers service
/// workers over a pre-warmed tier, fed whole batches through a queue
/// deep enough that admission never blocks — the raw compute ceiling
/// the soak's load multiples are derived from. JobsPerSec is the median
/// of the timed waves, MinJobsPerSec/MaxJobsPerSec their spread.
struct CapacityPoint {
  uint32_t Workers = 0;
  double JobsPerSec = 0;
  double MinJobsPerSec = 0;
  double MaxJobsPerSec = 0;
};

/// Timed waves per worker count. Over 10 runs on a 4-vCPU host, a
/// single 60-job wave at 4 workers read 392–1,458 jobs/s and the median
/// of three read 966–1,335: steady enough to derive load multiples and
/// scaling floors from.
constexpr unsigned CapacityTimedWaves = 3;

/// Measures queue-free capacity at each worker count through a fresh
/// AnalysisService: one untimed settle wave (OS thread placement), then
/// CapacityTimedWaves timed waves of \p Batch via serveBatch. \p Verify,
/// when set, receives every timed wave's outcomes (in job order) for
/// oracle/fingerprint checking.
inline std::vector<CapacityPoint> measureQueueFreeCapacity(
    const std::vector<AnalysisJob> &Batch,
    const std::shared_ptr<const SharedCache> &Cache,
    const std::vector<uint32_t> &WorkerCounts,
    const std::function<void(uint32_t, const std::vector<JobOutcome> &)>
        &Verify = {}) {
  std::vector<CapacityPoint> Points;
  for (uint32_t Workers : WorkerCounts) {
    ServiceOptions SO;
    SO.Workers = Workers;
    SO.QueueCapacity = static_cast<uint32_t>(Batch.size());
    SO.Shared = Cache;
    AnalysisService Svc(SO);
    serveBatch(Svc, Batch);
    std::vector<double> Rates;
    for (unsigned W = 0; W != CapacityTimedWaves; ++W) {
      auto Start = std::chrono::steady_clock::now();
      std::vector<JobOutcome> Out = serveBatch(Svc, Batch);
      double Wall = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - Start)
                        .count();
      Rates.push_back(Wall > 0 ? double(Batch.size()) / Wall : 0.0);
      if (Verify)
        Verify(Workers, Out);
    }
    std::sort(Rates.begin(), Rates.end());
    CapacityPoint P;
    P.Workers = Workers;
    P.JobsPerSec = Rates[Rates.size() / 2];
    P.MinJobsPerSec = Rates.front();
    P.MaxJobsPerSec = Rates.back();
    Points.push_back(P);
  }
  return Points;
}

} // namespace gaia

#endif // GAIA_BENCH_BENCHUTIL_H
