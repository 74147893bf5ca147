//===- perfbench/src/Bench.h - Inputs, statistics and spans ---------------==//
///
/// \file
/// The pieces every workload of the benchmark shares: the seeded
/// generator, the 30-query mix with its golden digests, order
/// statistics, and the in-memory span recorder of the traced run.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "runtime/SharedCache.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point From, Clock::time_point To) {
  return std::chrono::duration<double, std::milli>(To - From).count();
}

/// SplitMix64 with hand-written distributions: the standard library's
/// distributions are implementation-defined, and the same seed must
/// give the same inputs everywhere.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}

  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, N).
  size_t below(size_t N) {
    return static_cast<size_t>(unit() * static_cast<double>(N));
  }
  /// Exponential inter-arrival time (seconds) of a Poisson process.
  double exponential(double Rate);
  /// A uniformly random permutation of 0..N-1.
  std::vector<size_t> permutation(size_t N);

private:
  uint64_t State;
};

/// One of the 30 queries: a Section 9 program with its published goal,
/// or with the goal's first `any` set to `list` or `int`.
struct Query {
  std::string Key;     ///< "KA", "KA#list", "KA#int"
  std::string Program; ///< "KA"
  bool Published = false;
  gaia::AnalysisJob Job;
  std::string TypeDigest; ///< golden digest, type-graph domain
  std::string PfDigest;   ///< golden digest, principal-functor domain
};

/// Reads the programs under \p Dir/programs and the golden digests in
/// \p Dir/golden.tsv and builds the query mix in canonical order. With
/// \p RequireGolden false the digests may be absent (golden printing).
std::vector<Query> loadQueries(const std::string &Dir, bool RequireGolden,
                               std::string *Err);

/// 64-bit FNV-1a of an analysisFingerprint, as 16 hex digits.
std::string digest(const std::string &Fingerprint);

/// Median of \p V (0 for an empty vector).
double median(std::vector<double> V);
/// Nearest-rank percentile, \p Q in (0, 1].
double percentile(std::vector<double> V, double Q);
double mean(const std::vector<double> &V);

/// Process peak resident set (VmHWM) in MiB.
double peakRssMb();

/// In-memory span recorder. Spans carry a name, a start and an end on
/// the steady clock, the index of their parent span (-1 for none), the
/// job they belong to and a display lane. writeChrome emits Chrome
/// trace-event JSON, which Perfetto and chrome://tracing open offline.
class Trace {
public:
  struct Span {
    std::string Name;
    Clock::time_point Start, End;
    int Parent = -1;
    uint64_t Job = 0;
    uint32_t Lane = 0;
    bool Derived = false; ///< placed from a counter, not timed here
  };

  int add(std::string Name, Clock::time_point Start, Clock::time_point End,
          int Parent, uint64_t Job, uint32_t Lane = 0, bool Derived = false);

  /// Per span name: summed self time in ms (duration minus the part
  /// covered by child spans) and the number of spans.
  struct SelfTime {
    double Ms = 0;
    uint64_t Count = 0;
  };
  std::map<std::string, SelfTime> selfTimes() const;

  bool writeChrome(const std::string &Path) const;

private:
  std::vector<Span> Spans;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
