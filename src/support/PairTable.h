//===- support/PairTable.h - Epoch-marked pair hash table -----------------==//
///
/// \file
/// An open-addressing hash table over (uint32_t, uint32_t) keys with a
/// uint32_t payload, for the product traversals over two graphs: the
/// inclusion check, the intersection, the widening's correspondence walk
/// and the pair-state union of two certified graphs. Each traversal
/// needs one visited set or memo per call; `begin()` forgets the previous
/// call's entries in O(1) instead of deallocating, so a warm table
/// performs no heap traffic at all.
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_SUPPORT_PAIRTABLE_H
#define GAIA_SUPPORT_PAIRTABLE_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace gaia {

/// Epoch-marked open-addressing hash table over (uint32_t, uint32_t)
/// keys with a uint32_t payload. See file comment.
class PairTable {
public:
  /// Opens a new epoch; all previous entries become invisible.
  void begin() {
    ++Epoch;
    Count = 0;
    if (Slots.empty())
      Slots.resize(256);
  }

  /// Inserts (A, B) -> Val if absent (begin() must have been called).
  /// Returns the payload slot (existing or new) and whether the key was
  /// inserted.
  std::pair<uint32_t &, bool> insert(uint32_t A, uint32_t B,
                                     uint32_t Val = 0) {
    assert(Epoch != 0 && "PairTable::begin() not called");
    if ((Count + 1) * 4 >= Slots.size() * 3)
      grow();
    size_t I = probe(A, B);
    Slot &S = Slots[I];
    if (S.Mark == Epoch)
      return {S.Val, false};
    S.Mark = Epoch;
    S.Key = key(A, B);
    S.Val = Val;
    ++Count;
    return {S.Val, true};
  }

  /// Returns the payload of (A, B) in the current epoch, or null.
  const uint32_t *find(uint32_t A, uint32_t B) const {
    if (Slots.empty())
      return nullptr;
    size_t I = probe(A, B);
    return Slots[I].Mark == Epoch ? &Slots[I].Val : nullptr;
  }

private:
  struct Slot {
    uint64_t Key = 0;
    uint64_t Mark = 0;
    uint32_t Val = 0;
  };
  static uint64_t key(uint32_t A, uint32_t B) {
    return (uint64_t(A) << 32) | B;
  }
  /// First slot that holds (A, B) in this epoch or is free. Capacity is a
  /// power of two; linear probing.
  size_t probe(uint32_t A, uint32_t B) const {
    uint64_t K = key(A, B);
    uint64_t H = K * 0x9E3779B97F4A7C15ull;
    size_t Mask = Slots.size() - 1;
    size_t I = (H >> 32) & Mask;
    while (Slots[I].Mark == Epoch && Slots[I].Key != K)
      I = (I + 1) & Mask;
    return I;
  }
  void grow() {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(Old.empty() ? 256 : Old.size() * 2, Slot{});
    for (const Slot &S : Old) {
      if (S.Mark != Epoch)
        continue;
      uint64_t H = S.Key * 0x9E3779B97F4A7C15ull;
      size_t Mask = Slots.size() - 1;
      size_t I = (H >> 32) & Mask;
      while (Slots[I].Mark == Epoch)
        I = (I + 1) & Mask;
      Slots[I] = S;
    }
  }

  std::vector<Slot> Slots;
  uint64_t Epoch = 0;
  size_t Count = 0;
};

} // namespace gaia

#endif // GAIA_SUPPORT_PAIRTABLE_H
