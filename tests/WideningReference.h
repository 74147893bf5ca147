//===- tests/WideningReference.h - From-scratch Section 7 widening --------==//
///
/// \file
/// The pre-fast-path widening implementation, kept verbatim as an
/// executable specification: no interned pf-sets, no topology caches, no
/// scratch reuse, no incremental clash recomputation — every step
/// rederives everything from the graph via the public API and compacts
/// after every transform. tests/WideningPropertyTest.cpp checks that the
/// production graphWiden (typegraph/Widening.cpp) is *bit-identical* to
/// this on seeded random inputs: the optimization layers must be
/// unobservable. The union the transform loop starts from is built raw
/// and normalized by the full pipeline here (unionByFullPipeline), not
/// through graphUnion, so neither graphUnion's pair-state route nor the
/// widening's union shortcut is part of the specification it is
/// compared with.
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_TESTS_WIDENINGREFERENCE_H
#define GAIA_TESTS_WIDENINGREFERENCE_H

#include "support/Hashing.h"
#include "typegraph/GraphOps.h"
#include "typegraph/Normalize.h"
#include "typegraph/TypeGraph.h"
#include "typegraph/Widening.h"

#include <algorithm>
#include <deque>
#include <unordered_set>
#include <vector>

namespace gaia::reference {

struct Clash {
  NodeId Vo;
  NodeId Vn;
};

inline bool pfSubset(const std::vector<FunctorId> &A,
                     const std::vector<FunctorId> &B) {
  return std::includes(B.begin(), B.end(), A.begin(), A.end());
}

/// Widening clashes WTC(Go, Gn) by walking the correspondence relation of
/// Definition 7.1.
inline std::vector<Clash>
wideningClashes(const TypeGraph &Go, const TypeGraph::Topology &TopoO,
                const TypeGraph &Gn, const TypeGraph::Topology &TopoN,
                const SymbolTable &Syms) {
  std::vector<Clash> Result;
  std::unordered_set<std::pair<NodeId, NodeId>, PairHash> Visited;
  std::deque<std::pair<NodeId, NodeId>> Queue;
  Queue.emplace_back(Go.root(), Gn.root());
  while (!Queue.empty()) {
    auto [Vo, Vn] = Queue.front();
    Queue.pop_front();
    if (!Visited.insert({Vo, Vn}).second)
      continue;
    const TGNode &No = Go.node(Vo);
    const TGNode &Nn = Gn.node(Vn);
    if (No.Kind == NodeKind::Func && Nn.Kind == NodeKind::Func) {
      for (size_t J = 0, E = No.Succs.size(); J != E; ++J)
        Queue.emplace_back(No.Succs[J], Nn.Succs[J]);
      continue;
    }
    if (No.Kind != NodeKind::Or || Nn.Kind != NodeKind::Or)
      continue;
    bool SameDepth = TopoO.Depth[Vo] == TopoN.Depth[Vn];
    std::vector<FunctorId> PfO = Go.pfSet(Vo, Syms);
    std::vector<FunctorId> PfN = Gn.pfSet(Vn, Syms);
    if (SameDepth && PfO == PfN) {
      if (No.Succs.size() == Nn.Succs.size())
        for (size_t J = 0, E = No.Succs.size(); J != E; ++J)
          Queue.emplace_back(No.Succs[J], Nn.Succs[J]);
      continue;
    }
    if (PfN.empty())
      continue;
    bool PfClash = PfO != PfN && SameDepth;
    bool DepthClash = TopoO.Depth[Vo] < TopoN.Depth[Vn];
    if (PfClash || DepthClash)
      Result.push_back({Vo, Vn});
  }
  std::sort(Result.begin(), Result.end(), [&](const Clash &A, const Clash &B) {
    if (TopoN.Depth[A.Vn] != TopoN.Depth[B.Vn])
      return TopoN.Depth[A.Vn] < TopoN.Depth[B.Vn];
    if (A.Vn != B.Vn)
      return A.Vn < B.Vn;
    return A.Vo < B.Vo;
  });
  return Result;
}

inline std::vector<NodeId> orAncestors(const TypeGraph &G,
                                       const TypeGraph::Topology &Topo,
                                       NodeId V) {
  std::vector<NodeId> Result;
  for (NodeId P = Topo.Parent[V]; P != InvalidNode; P = Topo.Parent[P])
    if (G.node(P).Kind == NodeKind::Or)
      Result.push_back(P);
  return Result;
}

/// One pass of the widen() loop: copy-based transforms via
/// detail::graftReplace, full recompute of topologies and clashes.
inline bool applyOneTransform(const TypeGraph &Go, TypeGraph &Gn,
                              const SymbolTable &Syms,
                              const WideningOptions &Opts) {
  TypeGraph::Topology TopoO = Go.computeTopology();
  TypeGraph::Topology TopoN = Gn.computeTopology();
  std::vector<Clash> Clashes = wideningClashes(Go, TopoO, Gn, TopoN, Syms);
  if (Clashes.empty())
    return false;

  // Cycle introduction rule (Definition 7.4).
  for (const Clash &C : Clashes) {
    if (C.Vn == Gn.root())
      continue;
    std::vector<FunctorId> PfN = Gn.pfSet(C.Vn, Syms);
    for (NodeId Va : orAncestors(Gn, TopoN, C.Vn)) {
      if (TopoO.Depth[C.Vo] < TopoN.Depth[Va])
        continue;
      std::vector<FunctorId> PfA = Gn.pfSet(Va, Syms);
      if (!pfSubset(PfN, PfA))
        continue;
      if (!vertexIncludes(Gn, Va, Gn, C.Vn, Syms))
        continue;
      NodeId Parent = TopoN.Parent[C.Vn];
      for (NodeId &S : Gn.node(Parent).Succs)
        if (S == C.Vn)
          S = Va;
      Gn = Gn.compact();
      return true;
    }
  }

  // Replacement rule (Definition 7.5).
  for (const Clash &C : Clashes) {
    std::vector<FunctorId> PfN = Gn.pfSet(C.Vn, Syms);
    bool DepthClash = TopoO.Depth[C.Vo] < TopoN.Depth[C.Vn];
    for (NodeId Va : orAncestors(Gn, TopoN, C.Vn)) {
      if (TopoO.Depth[C.Vo] < TopoN.Depth[Va])
        continue;
      if (vertexIncludes(Gn, Va, Gn, C.Vn, Syms))
        continue;
      std::vector<FunctorId> PfA = Gn.pfSet(Va, Syms);
      if (!pfSubset(PfN, PfA) && !DepthClash)
        continue;
      uint64_t OldSize = Gn.sizeMetric();
      if (Opts.Database) {
        const TypeGraph *Best = nullptr;
        for (const TypeGraph &D : *Opts.Database) {
          if (!vertexIncludes(D, D.root(), Gn, Va, Syms) ||
              !vertexIncludes(D, D.root(), Gn, C.Vn, Syms))
            continue;
          if (!Best || D.sizeMetric() < Best->sizeMetric())
            Best = &D;
        }
        if (Best) {
          TypeGraph Candidate = detail::graftReplace(Gn, Va, *Best, TopoN);
          if (Candidate.sizeMetric() < OldSize) {
            Gn = std::move(Candidate);
            return true;
          }
        }
      }
      TypeGraph Rep =
          collapsingUnionFrom(Gn, {Va, C.Vn}, Syms, Opts.Norm);
      TypeGraph Candidate = detail::graftReplace(Gn, Va, Rep, TopoN);
      if (Candidate.sizeMetric() < OldSize) {
        Gn = std::move(Candidate);
        return true;
      }
      TypeGraph AnyRep = TypeGraph::makeAny();
      Candidate = detail::graftReplace(Gn, Va, AnyRep, TopoN);
      if (Candidate.sizeMetric() < OldSize) {
        Gn = std::move(Candidate);
        return true;
      }
    }
  }
  return false;
}

/// A U B by the full pipeline: normalizeGraph over a fresh or-vertex
/// joining copies of both graphs.
inline TypeGraph unionByFullPipeline(const TypeGraph &A, const TypeGraph &B,
                                     const SymbolTable &Syms,
                                     const NormalizeOptions &Opts) {
  TypeGraph Raw;
  NodeId RA = copySubgraph(A, A.root(), Raw);
  NodeId RB = copySubgraph(B, B.root(), Raw);
  Raw.setRoot(Raw.addOr({RA, RB}));
  return normalizeGraph(Raw, Syms, Opts);
}

/// The reference Gold V Gnew (WidenMode::Paper only).
inline TypeGraph widen(const TypeGraph &Gold, const TypeGraph &Gnew,
                       const SymbolTable &Syms,
                       const WideningOptions &Opts = {}) {
  if (graphIncludes(Gold, Gnew, Syms))
    return Gold;
  if (Gold.isBottomGraph())
    return normalizeGraph(Gnew, Syms, Opts.Norm);
  TypeGraph Gn = unionByFullPipeline(Gold, Gnew, Syms, Opts.Norm);
  uint32_t Transforms = 0;
  while (applyOneTransform(Gold, Gn, Syms, Opts)) {
    ++Transforms;
    if (Transforms > Opts.MaxTransforms)
      return TypeGraph::makeAny();
  }
  if (Transforms != 0)
    Gn = normalizeGraph(Gn, Syms, Opts.Norm);
  return Gn;
}

} // namespace gaia::reference

#endif // GAIA_TESTS_WIDENINGREFERENCE_H
