//===- typegraph/GraphOps.cpp ----------------------------------------------=//

#include "typegraph/GraphOps.h"

#include "support/Debug.h"
#include "support/FaultInject.h"
#include "support/GraphInterner.h" // structuralEqual, for sameNormalForm
#include "support/Hashing.h"
#include "support/SmallVector.h"

#include <unordered_map>
#include <unordered_set>

using namespace gaia;

namespace {

/// Leaf/functor constituents of a vertex position, looking through nested
/// or-vertices. On normalized graphs this is just the successor list of an
/// or-vertex (Flip-Flop forbids or-or edges, so the seen-set stays tiny),
/// but the helper is robust to raw product output too. Inline storage:
/// no heap traffic on the normalized fast path.
struct Constituents {
  bool IsAny = false;
  bool HasInt = false;
  SmallVector<NodeId, 8> Funcs;
};

static Constituents constituentsOf(const TypeGraph &G, NodeId V) {
  Constituents C;
  SmallVector<NodeId, 8> Stack{V};
  SmallVector<NodeId, 8> SeenOr;
  while (!Stack.empty()) {
    NodeId X = Stack.back();
    Stack.pop_back();
    const TGNode &N = G.node(X);
    switch (N.Kind) {
    case NodeKind::Any:
      C.IsAny = true;
      break;
    case NodeKind::Int:
      C.HasInt = true;
      break;
    case NodeKind::Func:
      C.Funcs.push_back(X);
      break;
    case NodeKind::Or:
      if (std::find(SeenOr.begin(), SeenOr.end(), X) == SeenOr.end()) {
        SeenOr.push_back(X);
        for (NodeId S : N.Succs)
          Stack.push_back(S);
      }
      break;
    }
  }
  return C;
}

/// Inclusion check over the product of reachable position pairs. On
/// normalized (deterministic, pruned) graphs the local condition at every
/// reachable pair is necessary and sufficient: every vertex is productive,
/// so a local failure always has a concrete term witness. The visited set
/// is the scratch's epoch-marked pair table: a warm check allocates
/// nothing.
class InclusionChecker {
public:
  InclusionChecker(const TypeGraph &G1, const TypeGraph &G2,
                   const SymbolTable &Syms, PairTable &Visited)
      : G1(G1), G2(G2), Syms(Syms), Visited(Visited) {
    Visited.begin();
  }

  bool check(NodeId V1, NodeId V2) {
    if (!Visited.insert(V1, V2).second)
      return true;
    Constituents C1 = constituentsOf(G1, V1);
    Constituents C2 = constituentsOf(G2, V2);
    if (C2.IsAny)
      return true;
    if (C1.IsAny)
      return false;
    if (C1.HasInt && !C2.HasInt)
      return false;
    for (NodeId F1 : C1.Funcs) {
      FunctorId Fn = G1.node(F1).Fn;
      if (C2.HasInt && Syms.isIntegerLiteral(Fn))
        continue;
      NodeId Match = InvalidNode;
      for (NodeId F2 : C2.Funcs)
        if (G2.node(F2).Fn == Fn) {
          Match = F2;
          break;
        }
      if (Match == InvalidNode)
        return false;
      const TGNode &N1 = G1.node(F1);
      const TGNode &N2 = G2.node(Match);
      assert(N1.Succs.size() == N2.Succs.size() && "arity mismatch");
      for (size_t J = 0, E = N1.Succs.size(); J != E; ++J)
        if (!check(N1.Succs[J], N2.Succs[J]))
          return false;
    }
    return true;
  }

private:
  const TypeGraph &G1;
  const TypeGraph &G2;
  const SymbolTable &Syms;
  PairTable &Visited;
};

} // namespace

WideningScratch &gaia::detail::wideningScratchOr(WideningScratch *WS) {
  static thread_local WideningScratch TLS;
  return WS ? *WS : TLS;
}

bool gaia::graphIncludes(const TypeGraph &G2, const TypeGraph &G1,
                         const SymbolTable &Syms, WideningScratch *WS) {
  if (G1.isBottomGraph())
    return true;
  if (G2.isBottomGraph())
    return false;
  InclusionChecker C(G1, G2, Syms, detail::wideningScratchOr(WS).Incl);
  return C.check(G1.root(), G2.root());
}

bool gaia::vertexIncludes(const TypeGraph &G2, NodeId V2, const TypeGraph &G1,
                          NodeId V1, const SymbolTable &Syms,
                          WideningScratch *WS) {
  InclusionChecker C(G1, G2, Syms, detail::wideningScratchOr(WS).Incl);
  return C.check(V1, V2);
}

bool gaia::graphEquals(const TypeGraph &A, const TypeGraph &B,
                       const SymbolTable &Syms, WideningScratch *WS) {
  return graphIncludes(A, B, Syms, WS) && graphIncludes(B, A, Syms, WS);
}

NodeId gaia::copySubgraph(const TypeGraph &From, NodeId V, TypeGraph &Out) {
  // Iterative two-phase copy: create all reachable nodes, then wire
  // edges. Ids are dense, so the memo is a flat remap array instead of a
  // hash map. Reserving the source size up front (an upper bound on the
  // reachable part) keeps the node vector from reallocating mid-copy.
  Out.reserveNodes(Out.numNodes() + From.numNodes());
  std::vector<NodeId> Remap(From.numNodes(), InvalidNode);
  SmallVector<NodeId, 16> Order;
  SmallVector<NodeId, 16> Stack{V};
  while (!Stack.empty()) {
    NodeId X = Stack.back();
    Stack.pop_back();
    if (Remap[X] != InvalidNode)
      continue;
    const TGNode &N = From.node(X);
    NodeId Copy = InvalidNode;
    switch (N.Kind) {
    case NodeKind::Any:
      Copy = Out.addAny();
      break;
    case NodeKind::Int:
      Copy = Out.addInt();
      break;
    case NodeKind::Func:
      Copy = Out.addFunc(N.Fn, {});
      break;
    case NodeKind::Or:
      Copy = Out.addOr({});
      break;
    }
    Remap[X] = Copy;
    Order.push_back(X);
    for (NodeId S : N.Succs)
      Stack.push_back(S);
  }
  for (NodeId X : Order) {
    SuccList Succs;
    Succs.reserve(From.node(X).Succs.size());
    for (NodeId S : From.node(X).Succs)
      Succs.push_back(Remap[S]);
    Out.node(Remap[X]).Succs = std::move(Succs);
  }
  return Remap[V];
}

namespace {

/// Product construction for intersection. The product memo is the
/// scratch's epoch-marked pair table.
class Intersector {
public:
  Intersector(const TypeGraph &G1, const TypeGraph &G2,
              const SymbolTable &Syms, PairTable &Memo)
      : G1(G1), G2(G2), Syms(Syms), Memo(Memo) {
    Memo.begin();
  }

  NodeId intersect(NodeId V1, NodeId V2) {
    if (const uint32_t *Hit = Memo.find(V1, V2))
      return *Hit;
    NodeId Or = Out.addOr({});
    Memo.insert(V1, V2, Or);

    Constituents C1 = constituentsOf(G1, V1);
    Constituents C2 = constituentsOf(G2, V2);
    SuccList Children;
    if (C1.IsAny) {
      appendCopyOfConstituents(C2, G2, Children);
    } else if (C2.IsAny) {
      appendCopyOfConstituents(C1, G1, Children);
    } else {
      if (C1.HasInt && C2.HasInt)
        Children.push_back(Out.addInt());
      if (C1.HasInt)
        for (NodeId F2 : C2.Funcs)
          if (Syms.isIntegerLiteral(G2.node(F2).Fn))
            Children.push_back(Out.addFunc(G2.node(F2).Fn, {}));
      if (C2.HasInt)
        for (NodeId F1 : C1.Funcs)
          if (Syms.isIntegerLiteral(G1.node(F1).Fn))
            Children.push_back(Out.addFunc(G1.node(F1).Fn, {}));
      for (NodeId F1 : C1.Funcs)
        for (NodeId F2 : C2.Funcs) {
          const TGNode &N1 = G1.node(F1);
          const TGNode &N2 = G2.node(F2);
          if (N1.Fn != N2.Fn)
            continue;
          SuccList Args;
          Args.reserve(N1.Succs.size());
          for (size_t J = 0, E = N1.Succs.size(); J != E; ++J)
            Args.push_back(intersect(N1.Succs[J], N2.Succs[J]));
          Children.push_back(Out.addFunc(N1.Fn, std::move(Args)));
        }
    }
    Out.node(Or).Succs = std::move(Children);
    return Or;
  }

  TypeGraph take(NodeId Root) {
    Out.setRoot(Root);
    return std::move(Out);
  }

private:
  void appendCopyOfConstituents(const Constituents &C, const TypeGraph &Src,
                                SuccList &Children) {
    if (C.IsAny) {
      Children.push_back(Out.addAny());
      return;
    }
    if (C.HasInt)
      Children.push_back(Out.addInt());
    for (NodeId F : C.Funcs)
      Children.push_back(copySubgraph(Src, F, Out));
  }

  const TypeGraph &G1;
  const TypeGraph &G2;
  const SymbolTable &Syms;
  TypeGraph Out;
  PairTable &Memo;
};

} // namespace

TypeGraph gaia::graphIntersect(const TypeGraph &G1, const TypeGraph &G2,
                               const SymbolTable &Syms,
                               const NormalizeOptions &Opts,
                               NormalizeScratch *Scratch,
                               WideningScratch *WS) {
  if (G1.isBottomGraph() || G2.isBottomGraph())
    return TypeGraph::makeBottom();
  Intersector I(G1, G2, Syms, detail::wideningScratchOr(WS).ProductMemo);
  NodeId Root = I.intersect(G1.root(), G2.root());
  TypeGraph Raw = I.take(Root);
  return normalizeGraph(Raw, Syms, Opts, Scratch);
}

bool gaia::detail::sameNormalForm(const TypeGraph &A, const TypeGraph &B) {
  return A.root() == B.root() && A.numNodes() == B.numNodes() &&
         structuralEqual(A, B) && A.sameCertificate(B);
}

static bool certifiedFor(const TypeGraph &G, const NormalizeOptions &Opts) {
  return G.isNormalizedFor(Opts.OrCap, Opts.MaxNodes, Opts.MaxDepth);
}

TypeGraph gaia::detail::graphUnionFull(const TypeGraph &G1,
                                       const TypeGraph &G2,
                                       const SymbolTable &Syms,
                                       const NormalizeOptions &Opts,
                                       NormalizeScratch *Scratch) {
  TypeGraph Out;
  Out.reserveNodes(G1.numNodes() + G2.numNodes() + 1);
  NodeId R1 = copySubgraph(G1, G1.root(), Out);
  NodeId R2 = copySubgraph(G2, G2.root(), Out);
  Out.setRoot(Out.addOr({R1, R2}));
  return normalizeGraph(Out, Syms, Opts, Scratch);
}

TypeGraph gaia::graphUnion(const TypeGraph &G1, const TypeGraph &G2,
                           const SymbolTable &Syms,
                           const NormalizeOptions &Opts,
                           NormalizeScratch *Scratch) {
  if (G1.isBottomGraph())
    return normalizeGraph(G2, Syms, Opts, Scratch);
  if (G2.isBottomGraph())
    return normalizeGraph(G1, Syms, Opts, Scratch);
  if (!certifiedFor(G1, Opts) || !certifiedFor(G2, Opts))
    return detail::graphUnionFull(G1, G2, Syms, Opts, Scratch);
  // The same chaos probe the full route's normalizeGraph carries.
  GAIA_FAULT_POINT(Normalize);
  TypeGraph U = normalizeCertifiedPair(G1, G1.root(), G2, G2.root(), Syms,
                                       Opts, Scratch);
  assert(detail::sameNormalForm(
             U, detail::graphUnionFull(G1, G2, Syms, Opts, Scratch)) &&
         "pair-state union diverged from the full pipeline");
  return U;
}

/// True if no vertex reachable from or-vertex \p X of the certified graph
/// \p G lies outside X's subtree, i.e. no back edge leaves the subtree
/// for a proper ancestor of X. Normalization outputs are BFS-numbered, so
/// tree edges go to higher ids and back edges to lower ones: the walk
/// follows the increasing edges only (no visited set — under No-Sharing
/// they form a tree) and fails at the first target below X. The other
/// certified graphs, the make* constructors, have no back edges, and in
/// makeFunctorOfAny (the only one with argument or-vertices) each
/// argument's leaf has a lower id, so there the test can only decline.
static bool subtreeIsClosed(const TypeGraph &G, NodeId X) {
  SmallVector<NodeId, 16> Stack{X};
  while (!Stack.empty()) {
    NodeId V = Stack.back();
    Stack.pop_back();
    for (NodeId S : G.node(V).Succs) {
      if (S < X)
        return false;
      if (S > V)
        Stack.push_back(S);
    }
  }
  return true;
}

/// The normalized graph of argument or-vertex \p X of \p V, certified for
/// \p Opts. A closed subtree of a certified graph was unfolded with no
/// state of its ancestors recurring in it, so it already is the unfold
/// of its own language's minimal automaton: compacting it is the whole
/// normalization. An escaping subtree recurs through an ancestor's state,
/// which the unfold from X spells differently; it is determinized over
/// V's or-vertices instead of closure keys.
static TypeGraph restrictCertified(const TypeGraph &V, NodeId X,
                                   const SymbolTable &Syms,
                                   const NormalizeOptions &Opts,
                                   NormalizeScratch *Scratch) {
  TypeGraph Arg;
  if (subtreeIsClosed(V, X)) {
    TypeGraph Sub = V;
    Sub.setRoot(X);
    Arg = Sub.compact();
    Arg.markNormalized(Opts.OrCap, Opts.MaxNodes, Opts.MaxDepth);
  } else {
    Arg = normalizeCertifiedPair(V, X, V, InvalidNode, Syms, Opts, Scratch);
  }
  assert(detail::sameNormalForm(Arg, normalizeFrom(V, {X}, Syms, Opts,
                                                   Scratch)) &&
         "certified restrict diverged from the full pipeline");
  return Arg;
}

bool gaia::graphRestrict(const TypeGraph &V, FunctorId Fn,
                         const SymbolTable &Syms,
                         const NormalizeOptions &Opts,
                         std::vector<TypeGraph> &ArgsOut,
                         NormalizeScratch *Scratch) {
  uint32_t Arity = Syms.functorArity(Fn);
  ArgsOut.clear();
  if (V.isBottomGraph())
    return false;
  const TGNode &Root = V.node(V.root());
  // Scan the root or-vertex's alternatives.
  for (NodeId S : Root.Succs) {
    const TGNode &N = V.node(S);
    if (N.Kind == NodeKind::Any) {
      // Any admits every functor with Any arguments.
      for (uint32_t I = 0; I != Arity; ++I)
        ArgsOut.push_back(TypeGraph::makeAny());
      return true;
    }
    if (N.Kind == NodeKind::Int) {
      if (Syms.isIntegerLiteral(Fn))
        return true; // literal below Int; no arguments
      continue;
    }
    if (N.Kind == NodeKind::Func && N.Fn == Fn) {
      bool Certified = certifiedFor(V, Opts);
      for (NodeId ArgOr : N.Succs)
        ArgsOut.push_back(
            Certified ? restrictCertified(V, ArgOr, Syms, Opts, Scratch)
                      : normalizeFrom(V, {ArgOr}, Syms, Opts, Scratch));
      return true;
    }
  }
  return false;
}

/// True if some or-vertex of an argument denotes f(Args) itself. Only an
/// or-vertex whose single alternative is an \p Fn vertex can, and it does
/// iff each of its argument positions denotes the corresponding argument
/// graph (inclusion both ways). Minimization would merge such a vertex
/// with the new root, so the canonical result recurs through the root
/// (T ::= a | g(f(T)) gives f(T) ::= f(a | g(<root>))), not the naive
/// shape.
static bool argDenotesRoot(FunctorId Fn, const std::vector<TypeGraph> &Args,
                           const SymbolTable &Syms, WideningScratch *WS) {
  for (const TypeGraph &A : Args)
    for (NodeId V = 0; V != A.numNodes(); ++V) {
      const TGNode &N = A.node(V);
      if (N.Kind != NodeKind::Or || N.Succs.size() != 1)
        continue;
      const TGNode &F = A.node(N.Succs[0]);
      if (F.Kind != NodeKind::Func || F.Fn != Fn)
        continue;
      bool Equal = true;
      for (size_t J = 0; J != Args.size() && Equal; ++J) {
        const TypeGraph &B = Args[J];
        Equal = vertexIncludes(B, B.root(), A, F.Succs[J], Syms, WS) &&
                vertexIncludes(A, F.Succs[J], B, B.root(), Syms, WS);
      }
      if (Equal)
        return true;
    }
  return false;
}

TypeGraph gaia::graphConstruct(FunctorId Fn,
                               const std::vector<TypeGraph> &Args,
                               const SymbolTable &Syms,
                               const NormalizeOptions &Opts,
                               NormalizeScratch *Scratch,
                               WideningScratch *WS) {
  assert(Syms.functorArity(Fn) == Args.size() && "arity mismatch");
  TypeGraph G;
  SuccList ArgOrs;
  ArgOrs.reserve(Args.size());
  bool AnyArgBottom = false;
  bool AllCertified = true;
  for (const TypeGraph &A : Args) {
    if (A.isBottomGraph())
      AnyArgBottom = true;
    AllCertified = AllCertified && certifiedFor(A, Opts);
    ArgOrs.push_back(copySubgraph(A, A.root(), G));
  }
  if (AnyArgBottom)
    return TypeGraph::makeBottom();
  NodeId F = G.addFunc(Fn, std::move(ArgOrs));
  G.setRoot(G.addOr({F}));
  // Certified arguments are their languages' unfolds, and the new root
  // adds one state of or-degree 1 above them. Unless that state recurs
  // inside an argument, the minimal automaton is the arguments' plus
  // the root, and its unfold is the naive shape. A depth bound would
  // count the extra level; the node bound is checked on the result.
  if (AllCertified && Opts.MaxDepth == 0 &&
      !argDenotesRoot(Fn, Args, Syms, WS)) {
    TypeGraph R = G.compact();
    if (R.numNodes() <= Opts.MaxNodes) {
      R.markNormalized(Opts.OrCap, Opts.MaxNodes, Opts.MaxDepth);
      assert(detail::sameNormalForm(R,
                                    normalizeGraph(G, Syms, Opts, Scratch)) &&
             "direct construct diverged from the full pipeline");
      return R;
    }
  }
  return normalizeGraph(G, Syms, Opts, Scratch);
}
