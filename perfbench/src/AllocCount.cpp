//===- perfbench/src/AllocCount.cpp - Counting global operator new --------==//
///
/// \file
/// Replacement global allocation functions. libstdc++ routes the array,
/// nothrow and sized forms through the four defined here, so every
/// allocation of the analyzer reaches the counter.
///
//===----------------------------------------------------------------------===//

#include "AllocCount.h"

#include <cstdlib>
#include <new>

namespace {

thread_local bool Armed = false;
thread_local perfbench::AllocTally Tally;

inline void note(std::size_t N) {
  if (Armed) {
    ++Tally.Count;
    Tally.Bytes += N;
  }
}

} // namespace

perfbench::AllocScope::AllocScope() {
  Tally = {};
  Armed = true;
}

perfbench::AllocScope::~AllocScope() { Armed = false; }

perfbench::AllocTally perfbench::AllocScope::tally() const { return Tally; }

void *operator new(std::size_t N) {
  note(N);
  if (N == 0)
    N = 1;
  for (;;) {
    if (void *P = std::malloc(N))
      return P;
    std::new_handler H = std::get_new_handler();
    if (!H)
      throw std::bad_alloc();
    H();
  }
}

void *operator new(std::size_t N, std::align_val_t Al) {
  note(N);
  std::size_t Align = static_cast<std::size_t>(Al);
  if (Align < sizeof(void *))
    Align = sizeof(void *);
  for (;;) {
    void *P = nullptr;
    if (posix_memalign(&P, Align, N ? N : 1) == 0)
      return P;
    std::new_handler H = std::get_new_handler();
    if (!H)
      throw std::bad_alloc();
    H();
  }
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
