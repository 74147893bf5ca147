//===- perfbench/src/AllocCount.h - Per-thread allocation counter ---------==//
///
/// \file
/// The benchmark binary replaces the global operator new/delete
/// (AllocCount.cpp) with malloc/free wrappers that count allocations
/// and requested bytes on the calling thread while armed. Only the
/// traced run arms it, and only around calls it attributes to one job,
/// so service worker threads and benchmark bookkeeping never pollute
/// the per-job figures. Disarmed, the wrapper costs one thread-local
/// load per allocation.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ALLOCCOUNT_H
#define PERFBENCH_ALLOCCOUNT_H

#include <cstdint>

namespace perfbench {

struct AllocTally {
  uint64_t Count = 0;
  uint64_t Bytes = 0;
};

/// Counts allocations made by the current thread while alive.
/// Not reentrant: scopes must not nest.
class AllocScope {
public:
  AllocScope();
  ~AllocScope();
  AllocScope(const AllocScope &) = delete;
  AllocScope &operator=(const AllocScope &) = delete;

  /// Allocations counted so far in this scope.
  AllocTally tally() const;
};

} // namespace perfbench

#endif // PERFBENCH_ALLOCCOUNT_H
