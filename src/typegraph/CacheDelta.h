//===- typegraph/CacheDelta.h - Portable harvest of hot cache entries -----==//
///
/// \file
/// A value-carrying snapshot of cache entries destined for another
/// OpCache: the currency of tier promotion (runtime/SharedCache.h).
/// OpCache::harvestDelta fills one with the hot entries of a job's
/// private delta (per-entry hit counters cleared a threshold) after the
/// job, so a later promoteAndRefreeze can merge them into the next
/// frozen tier instead of discarding them with the worker cache.
///
/// Entries carry operand and result *graphs by value* plus a snapshot of
/// the symbol table they were built against — never raw canonical ids,
/// which are meaningless outside their source interner. The consumer
/// (OpCache::absorbDelta) maps functor ids by (name, arity) and
/// re-interns every graph, so a delta is portable across workers and
/// tiers; exactness is preserved because every cached operation is a
/// pure function of the operand languages.
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_TYPEGRAPH_CACHEDELTA_H
#define GAIA_TYPEGRAPH_CACHEDELTA_H

#include "support/StringInterner.h"
#include "typegraph/TypeGraph.h"

#include <string>
#include <vector>

namespace gaia {

struct CacheDelta {
  /// Operand/result triple of a commutative or ordered pair operation
  /// (union / intersection / widening; for widening A is Old, B is New).
  struct PairEntry {
    TypeGraph A, B, R;
  };
  struct InclEntry {
    TypeGraph Big, Small;
    bool Result = false;
  };
  /// Functors travel as (name, arity): ids are table-relative, names are
  /// not.
  struct RestrictEntry {
    TypeGraph V;
    std::string Name;
    uint32_t Arity = 0;
    bool Ok = false;
    std::vector<TypeGraph> Args;
  };
  struct ConstructEntry {
    std::string Name;
    uint32_t Arity = 0;
    std::vector<TypeGraph> Args;
    TypeGraph R;
  };

  /// Snapshot of the table the carried graphs' functor ids refer to.
  SymbolTable Syms;
  /// Hot languages worth re-interning into the target even without a
  /// hot operation entry (later jobs then resolve them in the tier
  /// instead of minting private ids).
  std::vector<TypeGraph> Graphs;
  std::vector<InclEntry> Incl;
  std::vector<PairEntry> Union;
  std::vector<PairEntry> Inter;
  std::vector<PairEntry> Widen;
  std::vector<RestrictEntry> Restrict;
  std::vector<ConstructEntry> Construct;

  uint64_t entryCount() const {
    return Graphs.size() + Incl.size() + Union.size() + Inter.size() +
           Widen.size() + Restrict.size() + Construct.size();
  }
};

} // namespace gaia

#endif // GAIA_TYPEGRAPH_CACHEDELTA_H
