// Fixture: a file exercising the *allowed* shapes near every rule.
// Expect: zero findings.

#include <cstdint>
#include <thread>
#include <unordered_map>
#include <vector>

namespace gaia {

// Thread member done right: joined on the shutdown path in the same
// file (no-detached-thread stays quiet).
class Reaper {
public:
  void start() { Loop = std::thread([] {}); }
  void stop() {
    if (Loop.joinable())
      Loop.join();
  }

private:
  std::thread Loop;
};

// Frozen tier done right: const fields, const methods only.
struct FrozenOkTier {
  struct Builder { // nested builder may be mutable: it is pre-freeze
    std::vector<uint32_t> Ids;
    uint64_t Epoch = 0;
  };

  explicit FrozenOkTier(Builder &&B)
      : Epoch(B.Epoch), Ids(std::move(B.Ids)) {}

  const uint64_t Epoch;
  const std::vector<uint32_t> Ids;

  uint32_t size() const { return static_cast<uint32_t>(Ids.size()); }
};

// TypeGraph mutators calling the hook; const readers left alone.
class TypeGraph {
public:
  void setRoot(uint32_t Root) {
    invalidateDerived();
    RootId = Root;
  }
  uint32_t root() const { return RootId; }

private:
  void invalidateDerived() { Sig = 0; } // suppressed in the real tree

  uint32_t RootId = 0;
  uint64_t Sig = 0;
};

// Scratch-taking function that only uses scratch-owned buffers.
struct NormalizeScratch {
  std::vector<uint32_t> Order;
  std::unordered_map<uint32_t, uint32_t> Remap;
};

uint32_t renumber(NormalizeScratch &S, uint32_t N) {
  S.Order.clear();
  S.Remap.clear();
  for (uint32_t I = 0; I != N; ++I) {
    S.Order.push_back(I);
    S.Remap[I] = I;
  }
  return static_cast<uint32_t>(S.Order.size());
}

} // namespace gaia
