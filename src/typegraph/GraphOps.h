//===- typegraph/GraphOps.h - Inclusion, intersection, union --------------==//
///
/// \file
/// The three primitive operations of Section 6.9:
///   - g1 <= g2  : denotation inclusion (exact on normalized graphs),
///   - g1 /\ g2  : intersection (used for abstract unification, since type
///                 graphs are downward closed under instantiation),
///   - g1 \/ g2  : union (a direct construction followed by
///                 normalization).
///
/// All binary constructions return normalized graphs. Inclusion requires
/// the right-hand side to be deterministic (principal-functor restricted)
/// and both sides pruned of unproductive vertices — which normalization
/// guarantees; every graph handled by the analyzer is normalized.
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_TYPEGRAPH_GRAPHOPS_H
#define GAIA_TYPEGRAPH_GRAPHOPS_H

#include "support/PairTable.h"
#include "support/PfSetInterner.h"
#include "typegraph/Normalize.h"
#include "typegraph/TypeGraph.h"

namespace gaia {

/// Reusable buffers for the pairwise graph operations and the Section 7
/// widening loop, mirroring NormalizeScratch: one instance per analysis
/// (owned by the operation cache), threaded through every entry point;
/// passing nullptr falls back to a thread-local instance. Owns the
/// analysis' pf-set interner (optionally layered over a frozen shared
/// tier, runtime/SharedCache.h) — pf-set ids are what the widening's
/// topology caches and clash tests are keyed on.
///
/// The widening-loop members (walk/clean tables, topology arrays, dirty
/// propagation buffers) are implementation state of typegraph/Widening.cpp;
/// they live here so a warm widening performs no allocations.
class WideningScratch {
public:
  explicit WideningScratch(std::shared_ptr<const FrozenPfTier> SharedPf =
                               nullptr)
      : PfSets(std::move(SharedPf)) {}

  WideningScratch(const WideningScratch &) = delete;
  WideningScratch &operator=(const WideningScratch &) = delete;

  /// Interned principal-functor sets (support/PfSetInterner.h).
  PfSetInterner PfSets;
  /// Visited set of the inclusion checker.
  PairTable Incl;
  /// Product memo of the intersection construction.
  PairTable ProductMemo;

  // --- widening loop state (see typegraph/Widening.cpp) ---
  /// Correspondence-walk visited set, mapping pair -> walk index.
  PairTable WalkSeen;
  /// Pairs whose cone was clash-free in the previous walk.
  PairTable Clean;
  std::vector<std::pair<NodeId, NodeId>> Pairs;     ///< walk pair list
  std::vector<std::pair<uint32_t, uint32_t>> Edges; ///< pair-graph edges
  std::vector<uint8_t> Flags;                       ///< per-pair walk flags
  std::vector<std::pair<NodeId, NodeId>> Clashes;
  /// Gn topology, filled by TypeGraph::fillTopology (the same code that
  /// fills the per-graph caches); PrevDepth double-buffers the depths
  /// for the incremental dirty diff.
  TypeGraph::Topology GnTopo;
  std::vector<uint32_t> PrevDepth;
  std::vector<NodeId> OrAnc;
  std::vector<uint32_t> BfsPos, Pf;
  /// Dirty-region propagation: structurally touched nodes, reverse-CSR
  /// adjacency, epoch-marked node sets.
  std::vector<NodeId> DirtyStruct, Worklist;
  std::vector<uint32_t> PredOff, PredDat, CsrFill;
  std::vector<uint64_t> NodeMark, ReachMark;
  uint64_t NodeEpoch = 0, ReachEpoch = 0;
  std::vector<NodeId> StartBuf; ///< collapsing-union start vertices
  std::vector<uint32_t> PairWork;

  uint64_t beginNodeEpoch(size_t N) {
    if (NodeMark.size() < N)
      NodeMark.resize(N, 0);
    return ++NodeEpoch;
  }
  uint64_t beginReachEpoch(size_t N) {
    if (ReachMark.size() < N)
      ReachMark.resize(N, 0);
    return ++ReachEpoch;
  }
};

namespace detail {
/// The thread-local fallback for callers that do not own a scratch.
WideningScratch &wideningScratchOr(WideningScratch *WS);
} // namespace detail

/// True if Cc(G1) is a subset of Cc(G2).
bool graphIncludes(const TypeGraph &G2, const TypeGraph &G1,
                   const SymbolTable &Syms, WideningScratch *WS = nullptr);

/// True if the denotation of vertex \p V1 of \p G1 is included in the
/// denotation of vertex \p V2 of \p G2. \p G1 and \p G2 may alias (the
/// widening compares vertices of one graph).
bool vertexIncludes(const TypeGraph &G2, NodeId V2, const TypeGraph &G1,
                    NodeId V1, const SymbolTable &Syms,
                    WideningScratch *WS = nullptr);

/// Semantic equality (inclusion both ways).
bool graphEquals(const TypeGraph &A, const TypeGraph &B,
                 const SymbolTable &Syms, WideningScratch *WS = nullptr);

/// Returns a normalized G3 with Cc(G1) ∩ Cc(G2) ⊆ Cc(G3) (exact except
/// when a cap fires).
TypeGraph graphIntersect(const TypeGraph &G1, const TypeGraph &G2,
                         const SymbolTable &Syms,
                         const NormalizeOptions &Opts = {},
                         NormalizeScratch *Scratch = nullptr,
                         WideningScratch *WS = nullptr);

/// Returns a normalized G3 with Cc(G1) ∪ Cc(G2) ⊆ Cc(G3). When both
/// operands are certified for \p Opts the union is determinized over
/// pairs of their or-vertices (normalizeCertifiedPair) instead of by the
/// subset construction of the raw union; the result is the same graph.
TypeGraph graphUnion(const TypeGraph &G1, const TypeGraph &G2,
                     const SymbolTable &Syms,
                     const NormalizeOptions &Opts = {},
                     NormalizeScratch *Scratch = nullptr);

/// Restricts \p V to terms with principal functor \p Fn (the leaf-domain
/// unification primitive): returns false if no such terms exist;
/// otherwise fills \p ArgsOut with one normalized graph per argument.
/// \p V must be normalized. When \p V is certified for \p Opts, an
/// argument whose subtree has no back edge to a proper ancestor is
/// already its language's canonical shape and is copied out, and any
/// other argument is determinized over single or-vertices; the result
/// is the same graph normalizeFrom would give.
bool graphRestrict(const TypeGraph &V, FunctorId Fn, const SymbolTable &Syms,
                   const NormalizeOptions &Opts,
                   std::vector<TypeGraph> &ArgsOut,
                   NormalizeScratch *Scratch = nullptr);

/// Builds the normalized graph denoting f(a1, ..., an) from normalized
/// argument graphs (bottom if any argument is bottom). When every
/// argument is certified for \p Opts, no depth bound is set, the result
/// fits the node bound and no or-vertex of an argument denotes
/// f(a1, ..., an) itself, the naive shape f(copies), compacted, is the
/// canonical one and no normalization runs. The recurrence test uses
/// \p WS's inclusion table (thread-local fallback when null).
TypeGraph graphConstruct(FunctorId Fn, const std::vector<TypeGraph> &Args,
                         const SymbolTable &Syms,
                         const NormalizeOptions &Opts,
                         NormalizeScratch *Scratch = nullptr,
                         WideningScratch *WS = nullptr);

/// Deep-copies the structure reachable from \p V in \p From into \p Out,
/// returning the id of the copy. Used by product constructions.
NodeId copySubgraph(const TypeGraph &From, NodeId V, TypeGraph &Out);

namespace detail {

/// The union by the full pipeline: normalizeGraph over a fresh or-vertex
/// joining copies of both operands. graphUnion's route for uncertified
/// operands, and the reference its pair-state route is audited against.
TypeGraph graphUnionFull(const TypeGraph &G1, const TypeGraph &G2,
                         const SymbolTable &Syms,
                         const NormalizeOptions &Opts,
                         NormalizeScratch *Scratch);

/// True if \p A and \p B are the same graph vertex for vertex (equal
/// BFS-canonical shapes, roots and vertex counts, so two compacted
/// graphs have identical node arrays) and carry the same certificate:
/// the bar every certified-operand route is held to against the full
/// pipeline, in the debug audits and in NormalizePropertyTest.
bool sameNormalForm(const TypeGraph &A, const TypeGraph &B);

} // namespace detail

} // namespace gaia

#endif // GAIA_TYPEGRAPH_GRAPHOPS_H
