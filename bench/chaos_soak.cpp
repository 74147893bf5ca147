//===- bench/chaos_soak.cpp - Fault-containment soak -----------------------==//
///
/// \file
/// The serving runtime's chaos soak: a large batch of mixed jobs — the
/// ten Section 9 programs x query variants, with a malformed program
/// salted in every ~97th slot — run as one batch through an
/// AnalysisService (serveBatch) with the resilience ladder attached. In
/// a -DGAIA_FAULT_INJECT=ON build with GAIA_FAULT_P set (CI uses 1e-3),
/// the deterministic fault streams throw synthetic exceptions at the
/// op-cache/normalize/intern/alloc seams; in a production build this
/// degenerates to a clean soak of the same invariants.
///
/// The soak passes only when
///   * the process survives (workers contain every fault),
///   * every failed job carries a structured FailKind (never None),
///   * each malformed job fails alone with ParseError (or — with
///     injection armed — was pushed onto the degradation floor by
///     faults that pre-empted its parse),
///   * every well-formed job ends Ok (the ladder's floor guarantee),
///     and
///   * every well-formed, non-degraded result is bit-identical to the
///     sequential oracle (faults and retries never corrupt a result
///     that reports success at full precision).
///
/// Prints its figures to stdout and any violation to stderr; the exit
/// status is the gate. Job count via CHAOS_JOBS (default 10000),
/// workers via CHAOS_WORKERS (default 8). The service salts each job's
/// fault streams with its admission sequence number (Seq x 251), and a
/// fresh service admits the batch in job order, so the fault plan is a
/// function of the batch and the seed alone.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "runtime/AnalysisService.h"
#include "support/FaultInject.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <vector>

using namespace gaia;

namespace {

unsigned envUnsigned(const char *Name, unsigned Default) {
  if (const char *E = std::getenv(Name))
    return std::max(1u, static_cast<unsigned>(std::strtoul(E, nullptr, 10)));
  return Default;
}

} // namespace

int main(int argc, char **argv) {
  (void)argc;
  (void)argv;
  unsigned TotalJobs = envUnsigned("CHAOS_JOBS", 10000);
  unsigned Workers = envUnsigned("CHAOS_WORKERS", 8);
  const char *FaultP = std::getenv("GAIA_FAULT_P");

  // The malformed program: a clause with an empty body. Its goal is
  // well-formed on purpose — the failure must come from the program
  // parser, tagged with the offending line.
  const AnalysisJob Malformed{"malformed", "p(a).\nq(X) :- .\n", "p(any)"};
  const unsigned MalformedEvery = 97;

  std::vector<AnalysisJob> Queries = serviceQueryMix();
  std::vector<AnalysisJob> Batch;
  Batch.reserve(TotalJobs);
  unsigned MalformedJobs = 0;
  for (unsigned I = 0; I != TotalJobs; ++I) {
    if (I % MalformedEvery == MalformedEvery - 1) {
      Batch.push_back(Malformed);
      ++MalformedJobs;
    } else {
      Batch.push_back(Queries[I % Queries.size()]);
    }
  }

  // Warm shared tier from the published goals. Warm-up and oracle run
  // on this thread, outside any JobScope: their fault streams are
  // disarmed, so they cannot fault and the oracle is exact.
  std::vector<AnalysisJob> Warmup;
  for (const BenchmarkProgram &B : table123Suite())
    Warmup.push_back({B.Key, B.Source, B.GoalSpec});
  std::string Err;
  std::shared_ptr<const SharedCache> Cache =
      SharedCache::build(Warmup, AnalyzerOptions{}, &Err);
  if (!Cache) {
    std::fprintf(stderr, "error: shared cache build failed: %s\n", Err.c_str());
    return 1;
  }

  std::map<std::string, std::string> Oracle;
  for (const AnalysisJob &Q : Queries) {
    AnalysisResult R = analyzeProgram(Q.Source, Q.GoalSpec);
    if (!R.Ok) {
      std::fprintf(stderr, "error: oracle %s: %s\n", Q.Key.c_str(),
                   R.Error.c_str());
      return 1;
    }
    Oracle[Q.Key + "|" + Q.GoalSpec] = analysisFingerprint(R);
  }

  // The soak measures the ladder, so quarantine is disabled: the batch
  // repeats ~30 distinct queries hundreds of times, and under injected
  // transient faults a fingerprint-keyed quarantine would collapse the
  // whole tail of a repeated query onto the degraded floor. Quarantine
  // semantics have their own deterministic unit tests (ResilienceTest).
  ResilienceOptions RO;
  RO.QuarantineThreshold = std::numeric_limits<uint32_t>::max();
  auto Manager = std::make_shared<ResilienceManager>(RO);
  ServiceOptions SO;
  SO.Workers = Workers;
  SO.Shared = Cache;
  SO.Resilience = Manager;
  AnalysisService Svc(SO);

  std::printf("=== chaos soak ===\n");
  std::printf("jobs: %u (%u malformed), workers: %u, fault injection: %s"
              " (GAIA_FAULT_P=%s)\n",
              TotalJobs, MalformedJobs, Svc.workers(),
#ifdef GAIA_FAULT_INJECT
              "compiled in",
#else
              "compiled out",
#endif
              FaultP ? FaultP : "unset");

  auto Start = std::chrono::steady_clock::now();
  std::vector<JobOutcome> Out = serveBatch(Svc, Batch);
  double Wall = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Start)
                    .count();

  // Invariant sweep.
  unsigned Violations = 0;
  unsigned Failed = 0, Degraded = 0, Recovered = 0;
  std::string FirstError;
  uint64_t FaultFires = 0;
  std::map<std::string, uint64_t> FailKinds;
  std::map<std::string, uint64_t> Rungs;
  auto violate = [&](size_t I, const char *What) {
    if (Violations < 20)
      std::fprintf(stderr, "VIOLATION: job %zu (%s): %s\n", I,
                   Batch[I].Key.c_str(), What);
    ++Violations;
  };
  for (size_t I = 0; I != Out.size(); ++I) {
    const JobOutcome &O = Out[I];
    const AnalysisResult &R = O.Result;
    FaultFires += O.FaultFires;
    if (!R.Ok) {
      ++FailKinds[failKindName(R.Fail)];
      ++Failed;
      if (FirstError.empty())
        FirstError = Batch[I].Key + ": " + R.Error;
    } else if (R.Degraded) {
      ++Degraded;
    } else if (O.Rung == RecoveryRung::ColdRetry) {
      ++Recovered;
    }
    if (O.Rung != RecoveryRung::None)
      ++Rungs[recoveryRungName(O.Rung)];

    if (!R.Ok && R.Fail == FailKind::None)
      violate(I, "failure without a FailKind");
    bool IsMalformed = Batch[I].Key == Malformed.Key;
    if (IsMalformed) {
      // Normal path: ParseError, untouched by the ladder. With faults
      // armed, an injected throw can pre-empt the parse; the ladder may
      // then legitimately land such a job on the degradation floor.
      bool StructuredParse = !R.Ok && R.Fail == FailKind::ParseError;
      bool FloorAfterFaults = R.Ok && R.Degraded;
      if (!StructuredParse && !FloorAfterFaults)
        violate(I, "malformed job neither ParseError nor degraded floor");
    } else {
      if (!R.Ok)
        violate(I, "well-formed job escaped the ladder's floor");
      else if (!R.Degraded &&
               analysisFingerprint(R) !=
                   Oracle[Batch[I].Key + "|" + Batch[I].GoalSpec])
        violate(I, "non-degraded result diverged from the oracle");
      // The headline determinism guarantee: a job whose fault streams
      // never fired took the ordinary path and must be indistinguishable
      // from a fault-free run — full precision, oracle-identical.
      if (O.FaultFires == 0 && R.Ok && R.Degraded)
        violate(I, "fault-free job reported a degraded result");
    }
  }

  ResilienceStats RS = Manager->stats();
  std::printf("wall: %.3fs (%.1f jobs/s)\n", Wall,
              Wall > 0 ? double(Out.size()) / Wall : 0.0);
  std::printf("failed: %u, degraded: %u, recovered: %u, fault fires: %llu\n",
              Failed, Degraded, Recovered,
              static_cast<unsigned long long>(FaultFires));
  if (!FirstError.empty())
    std::printf("first error: %s\n", FirstError.c_str());
  std::printf("ladder: %llu first-attempt failures, %llu cold retries "
              "(%llu ok), %llu tight retries (%llu ok), %llu floor, "
              "%llu quarantined, %llu short-circuits\n",
              static_cast<unsigned long long>(RS.FirstAttemptFailures),
              static_cast<unsigned long long>(RS.ColdRetries),
              static_cast<unsigned long long>(RS.ColdRetrySuccesses),
              static_cast<unsigned long long>(RS.TightRetries),
              static_cast<unsigned long long>(RS.TightRetrySuccesses),
              static_cast<unsigned long long>(RS.WidenToTopFallbacks),
              static_cast<unsigned long long>(RS.QuarantinedJobs),
              static_cast<unsigned long long>(RS.QuarantineShortCircuits));
  for (const auto &[Kind, N] : FailKinds)
    std::printf("  fail %-12s %llu\n", Kind.c_str(),
                static_cast<unsigned long long>(N));
  for (const auto &[Rung, N] : Rungs)
    std::printf("  rung %-12s %llu\n", Rung.c_str(),
                static_cast<unsigned long long>(N));

  if (Violations) {
    std::fprintf(stderr, "FAIL: %u invariant violation(s)\n", Violations);
    return 1;
  }
  std::printf("PASS: all %u jobs contained, structured, and sound\n",
              TotalJobs);
  return 0;
}
