// Fixture: a frozen tier type with writable fields.
// Expect: freeze-fields on `Readers`, `Count` and `Memo`.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace gaia {

struct FrozenDemoTier {
  struct Stats {
    uint64_t Hits = 0;
  };

  const std::vector<uint32_t> Ids; // ok: const
  std::atomic<uint64_t> Readers;   // BAD: an atomic is still a write
  uint64_t Count = 0;              // BAD: plain writable field
  // BAD: mutable; the const inside the template argument does not count.
  mutable std::shared_ptr<const Stats> Memo;

  uint32_t size() const { return static_cast<uint32_t>(Ids.size()); }
};

} // namespace gaia
