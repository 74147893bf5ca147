//===- tests/ReferenceInterner.h - All-automaton interning reference ------==//
///
/// \file
/// The reference support/GraphInterner is checked against: every graph
/// is keyed by its serialized minimal automaton (buildAutomaton numbers
/// states deterministically from the structure alone, so the
/// serialization is a canonical language key), and the first graph seen
/// with a language keeps the id and stays its representative. No
/// structural buckets, no certificates, no tiers: one automaton per
/// intern, slow and obviously right.
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_TESTS_REFERENCEINTERNER_H
#define GAIA_TESTS_REFERENCEINTERNER_H

#include "support/GraphInterner.h"
#include "typegraph/Normalize.h"

#include <map>
#include <vector>

namespace gaia {

class ReferenceInterner {
public:
  explicit ReferenceInterner(const SymbolTable &Syms) : Syms(Syms) {}

  CanonId intern(const TypeGraph &G) {
    auto [It, New] =
        Ids.emplace(key(G), static_cast<CanonId>(Reps.size()));
    if (New)
      Reps.push_back(G);
    return It->second;
  }

  const TypeGraph &graph(CanonId Id) const { return Reps[Id]; }
  uint32_t size() const { return static_cast<uint32_t>(Reps.size()); }

private:
  std::vector<uint64_t> key(const TypeGraph &G) const {
    GrammarAutomaton A = buildAutomaton(G, Syms);
    if (A.Empty)
      return {0xE0};
    std::vector<uint64_t> Key{A.States.size()};
    for (const GrammarAutomaton::State &S : A.States) {
      Key.push_back((S.IsAny ? 2 : 0) | (S.HasInt ? 1 : 0));
      Key.push_back(S.Trans.size());
      for (const auto &[Fn, Args] : S.Trans) {
        Key.push_back(Fn);
        Key.insert(Key.end(), Args.begin(), Args.end());
      }
    }
    return Key;
  }

  const SymbolTable &Syms;
  std::map<std::vector<uint64_t>, CanonId> Ids;
  std::vector<TypeGraph> Reps;
};

} // namespace gaia

#endif // GAIA_TESTS_REFERENCEINTERNER_H
