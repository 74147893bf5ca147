//===- tests/NormalizePropertyTest.cpp - Normalization pipeline properties ==//
///
/// \file
/// Property tests for the allocation-light normalization pipeline on
/// seeded random raw graphs:
///
///   1. outputs satisfy every cosmetic restriction (validate),
///   2. idempotence: normalize(normalize(G)) == normalize(G), and —
///      stronger, because re-normalization short-circuits through the
///      certificate — the *full pipeline* re-run on a certificate-
///      stripped copy reproduces the same structure (certificate
///      honesty),
///   3. language preservation, checked against an independent oracle: a
///      direct term-membership interpreter over the raw graph (the
///      subset construction is never consulted), with terms sampled
///      from both the raw and the normalized graph. Containment
///      (raw ⊆ normalized) must always hold; exactness is only promised
///      when no or-closure holds two same-functor constituents of
///      positive arity — the Principal-Functor restriction *merges*
///      those (g(a,b)|g(b,a) becomes g(a|b, a|b)), the representation's
///      inherent over-approximation —, so the reverse direction is
///      asserted only for unambiguous inputs,
///   4. the cached restrict/construct primitives agree with their
///      uncached implementations,
///   5. certified means canonical, the premise of the interner's
///      structural language index: under every or-cap and depth bound,
///      a certified graph is reproduced by exact re-normalization of its
///      uncertified twin, and two certified graphs are structurally
///      equal iff their minimal automata are (tests/ReferenceInterner.h
///      keys on the latter),
///   6. the certified-operand routes (the pair-state union, the direct
///      construct and restrict results, the widening's union shortcut)
///      return the full pipeline's graph vertex for vertex with an equal
///      certificate, under every or-cap and depth bound. The full
///      pipeline is reached without the library's help: normalizeGraph
///      on a raw or(copy, copy) or f(copies), normalizeFrom for an
///      argument vertex, and tests/WideningReference.h for the widening.
///
//===----------------------------------------------------------------------===//

#include "ReferenceInterner.h"
#include "WideningReference.h"

#include "support/GraphInterner.h"
#include "typegraph/GraphOps.h"
#include "typegraph/Normalize.h"
#include "typegraph/OpCache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <set>
#include <vector>

using namespace gaia;

namespace {

/// A ground Prolog term over the test signature. Integer literals are
/// nullary functors whose name spells a number.
struct Term {
  FunctorId Fn;
  std::vector<Term> Args;
};

/// Direct membership interpreter: t in Cc(V)? Independent of the subset
/// construction — this is the oracle the pipeline is tested against.
/// Or-cycles that consume no input are cut via the active set (a revisit
/// of the same (vertex, term) pair cannot contribute new members).
class Membership {
public:
  Membership(const TypeGraph &G, const SymbolTable &Syms)
      : G(G), Syms(Syms) {}

  bool accepts(NodeId V, const Term &T) {
    const TGNode &N = G.node(V);
    switch (N.Kind) {
    case NodeKind::Any:
      return true;
    case NodeKind::Int:
      return Syms.isIntegerLiteral(T.Fn) && T.Args.empty();
    case NodeKind::Func: {
      if (N.Fn != T.Fn || N.Succs.size() != T.Args.size())
        return false;
      for (size_t I = 0; I != T.Args.size(); ++I)
        if (!accepts(N.Succs[I], T.Args[I]))
          return false;
      return true;
    }
    case NodeKind::Or: {
      auto Key = std::make_pair(V, &T);
      if (!Active.insert(Key).second)
        return false;
      bool Ok = false;
      for (NodeId S : N.Succs)
        if (accepts(S, T)) {
          Ok = true;
          break;
        }
      Active.erase(Key);
      return Ok;
    }
    }
    return false;
  }

private:
  const TypeGraph &G;
  const SymbolTable &Syms;
  std::set<std::pair<NodeId, const Term *>> Active;
};

struct Signature {
  SymbolTable Syms;
  FunctorId A0, B0, C0, F1, G2, H1, Lit;
  Signature() {
    A0 = Syms.functor("a", 0);
    B0 = Syms.functor("b", 0);
    C0 = Syms.functor("c", 0);
    F1 = Syms.functor("f", 1);
    G2 = Syms.functor("g", 2);
    H1 = Syms.functor("h", 1);
    Lit = Syms.functor("7", 0);
  }
};

class GraphGen {
public:
  GraphGen(Signature &Sig, uint32_t Seed) : Sig(Sig), Rng(Seed) {}

  /// A random raw graph: or-vertices wired with a random mix of leaves,
  /// functor vertices and other or-vertices (so or-or chains, sharing
  /// and cycles all occur), rooted at or-vertex 0.
  TypeGraph randomRaw() {
    TypeGraph G;
    uint32_t NumOrs = 2 + Rng() % 6;
    std::vector<NodeId> Ors;
    for (uint32_t I = 0; I != NumOrs; ++I)
      Ors.push_back(G.addOr({}));
    auto RandomOr = [&] { return Ors[Rng() % Ors.size()]; };
    for (NodeId Or : Ors) {
      SuccList Succs;
      uint32_t Degree = Rng() % 4;
      for (uint32_t J = 0; J != Degree; ++J) {
        switch (Rng() % 8) {
        case 0:
          Succs.push_back(G.addAny());
          break;
        case 1:
          Succs.push_back(G.addInt());
          break;
        case 2:
          Succs.push_back(G.addFunc(Sig.A0, {}));
          break;
        case 3:
          Succs.push_back(G.addFunc(Sig.B0, {}));
          break;
        case 4:
          Succs.push_back(G.addFunc(Sig.Lit, {}));
          break;
        case 5:
          Succs.push_back(G.addFunc(Sig.F1, {RandomOr()}));
          break;
        case 6:
          Succs.push_back(G.addFunc(Sig.G2, {RandomOr(), RandomOr()}));
          break;
        case 7:
          Succs.push_back(RandomOr()); // or-or edge
          break;
        }
      }
      G.node(Or).Succs = std::move(Succs);
    }
    G.setRoot(Ors[0]);
    return G;
  }

  /// Samples a ground term from Cc(V), or nullopt when the depth budget
  /// cannot reach a leaf along the tried branches.
  std::optional<Term> sample(const TypeGraph &G, NodeId V, uint32_t Depth) {
    const TGNode &N = G.node(V);
    switch (N.Kind) {
    case NodeKind::Any:
      return groundTerm(2);
    case NodeKind::Int:
      return Term{Sig.Lit, {}};
    case NodeKind::Func: {
      if (Depth == 0 && !N.Succs.empty())
        return std::nullopt;
      Term T{N.Fn, {}};
      for (NodeId S : N.Succs) {
        auto Arg = sample(G, S, Depth ? Depth - 1 : 0);
        if (!Arg)
          return std::nullopt;
        T.Args.push_back(std::move(*Arg));
      }
      return T;
    }
    case NodeKind::Or: {
      if (Depth == 0)
        return std::nullopt;
      std::vector<NodeId> Order(N.Succs.begin(), N.Succs.end());
      std::shuffle(Order.begin(), Order.end(), Rng);
      for (NodeId S : Order)
        if (auto T = sample(G, S, Depth - 1))
          return T;
      return std::nullopt;
    }
    }
    return std::nullopt;
  }

  Term groundTerm(uint32_t Depth) {
    if (Depth == 0 || Rng() % 2 == 0) {
      FunctorId Leaves[] = {Sig.A0, Sig.B0, Sig.C0, Sig.Lit};
      return Term{Leaves[Rng() % 4], {}};
    }
    if (Rng() % 2 == 0)
      return Term{Sig.F1, {groundTerm(Depth - 1)}};
    return Term{Sig.G2, {groundTerm(Depth - 1), groundTerm(Depth - 1)}};
  }

private:
  Signature &Sig;
  std::mt19937 Rng;
};

constexpr uint32_t NumGraphs = 150;
constexpr uint32_t SamplesPerGraph = 12;

/// True if some or-closure of \p G holds two distinct same-functor
/// constituents of positive arity — the case the Principal-Functor
/// restriction resolves by merging argument positions (a strict
/// over-approximation), which voids the exactness half of the
/// language-preservation property.
bool hasAmbiguousClosure(const TypeGraph &G) {
  for (NodeId V = 0; V != G.numNodes(); ++V) {
    if (G.node(V).Kind != NodeKind::Or)
      continue;
    // Expand the or-closure of V.
    std::vector<NodeId> Stack{V};
    std::set<NodeId> SeenOr;
    std::multiset<FunctorId> Fns;
    while (!Stack.empty()) {
      NodeId X = Stack.back();
      Stack.pop_back();
      const TGNode &N = G.node(X);
      if (N.Kind == NodeKind::Or) {
        if (SeenOr.insert(X).second)
          for (NodeId S : N.Succs)
            Stack.push_back(S);
      } else if (N.Kind == NodeKind::Func && !N.Succs.empty()) {
        if (Fns.count(N.Fn))
          return true;
        Fns.insert(N.Fn);
      }
    }
  }
  return false;
}

TEST(NormalizePropertyTest, OutputsValidateAndCertify) {
  Signature Sig;
  GraphGen Gen(Sig, 20260727);
  for (uint32_t I = 0; I != NumGraphs; ++I) {
    TypeGraph Raw = Gen.randomRaw();
    TypeGraph N = normalizeGraph(Raw, Sig.Syms);
    std::string Why;
    EXPECT_TRUE(N.validate(Sig.Syms, &Why)) << Why;
    EXPECT_TRUE(N.isNormalizedFor(0, NormalizeOptions{}.MaxNodes, 0));
  }
}

TEST(NormalizePropertyTest, IdempotentAndCertificateHonest) {
  Signature Sig;
  GraphGen Gen(Sig, 42);
  for (uint32_t I = 0; I != NumGraphs; ++I) {
    TypeGraph Raw = Gen.randomRaw();
    TypeGraph N1 = normalizeGraph(Raw, Sig.Syms);
    // API-level idempotence (allowed to use the certificate fast path).
    TypeGraph N2 = normalizeGraph(N1, Sig.Syms);
    EXPECT_TRUE(structuralEqual(N1, N2));
    // Certificate honesty: strip the certificate (compact() rebuilds the
    // node array, dropping derived caches) and force the full pipeline.
    TypeGraph Stripped = N1.compact();
    ASSERT_FALSE(Stripped.isNormalizedFor(0, NormalizeOptions{}.MaxNodes, 0));
    TypeGraph N3 = normalizeGraph(Stripped, Sig.Syms);
    EXPECT_TRUE(structuralEqual(N1, N3))
        << "full pipeline disagrees with certified fast path";
  }
}

TEST(NormalizePropertyTest, CertifiedOutputsAreCanonicalShapes) {
  Signature Sig;
  GraphGen Gen(Sig, 1994);
  std::vector<TypeGraph> Certified{
      TypeGraph::makeAny(), TypeGraph::makeInt(), TypeGraph::makeBottom(),
      TypeGraph::makeFunctorOfAny(Sig.Syms, Sig.A0),
      TypeGraph::makeFunctorOfAny(Sig.Syms, Sig.F1),
      TypeGraph::makeFunctorOfAny(Sig.Syms, Sig.G2)};
  uint32_t Truncated = 0;
  for (uint32_t I = 0; I != NumGraphs; ++I) {
    TypeGraph Raw = Gen.randomRaw();
    for (uint32_t OrCap : {0u, 5u, 2u})
      for (uint32_t MaxDepth : {0u, 3u}) {
        NormalizeOptions Opts;
        Opts.OrCap = OrCap;
        Opts.MaxDepth = MaxDepth;
        TypeGraph N = normalizeGraph(Raw, Sig.Syms, Opts);
        if (N.isCertified())
          Certified.push_back(std::move(N));
        else
          ++Truncated; // the depth bound fired
      }
  }
  // The depth bound must fire sometimes without swamping the pool.
  EXPECT_GT(Truncated, 0u);
  ASSERT_GT(Certified.size(), 4 * NumGraphs);

  ReferenceInterner Ref(Sig.Syms);
  std::vector<CanonId> Language;
  for (const TypeGraph &N : Certified) {
    // compact() rebuilds the node array, dropping the certificate, so
    // the exact pipeline runs in full on the twin.
    TypeGraph Twin = N.compact();
    ASSERT_FALSE(Twin.isCertified());
    EXPECT_TRUE(structuralEqual(normalizeGraph(Twin, Sig.Syms), N))
        << "a certified graph is not its language's canonical shape";
    Language.push_back(Ref.intern(N));
  }
  uint32_t EqualPairs = 0;
  for (size_t A = 0; A != Certified.size(); ++A)
    for (size_t B = A + 1; B != Certified.size(); ++B) {
      bool Same = Language[A] == Language[B];
      EqualPairs += Same;
      EXPECT_EQ(structuralEqual(Certified[A], Certified[B]), Same)
          << "graphs " << A << " and " << B;
    }
  // Both directions of the equivalence are exercised.
  EXPECT_GT(EqualPairs, 0u);
  EXPECT_GT(Ref.size(), 40u);
}

TEST(NormalizePropertyTest, LanguagePreservingAgainstMembershipOracle) {
  Signature Sig;
  GraphGen Gen(Sig, 1507);
  uint32_t Checked = 0;
  for (uint32_t I = 0; I != NumGraphs; ++I) {
    TypeGraph Raw = Gen.randomRaw();
    TypeGraph N = normalizeGraph(Raw, Sig.Syms);
    bool Exact = !hasAmbiguousClosure(Raw);
    // Terms sampled from the raw graph stay in the normalized language
    // (containment holds unconditionally).
    for (uint32_t S = 0; S != SamplesPerGraph; ++S) {
      if (auto T = Gen.sample(Raw, Raw.root(), 6)) {
        ASSERT_TRUE(Membership(Raw, Sig.Syms).accepts(Raw.root(), *T))
            << "sampler produced a term outside its own graph";
        EXPECT_TRUE(Membership(N, Sig.Syms).accepts(N.root(), *T));
        ++Checked;
      }
      // On unambiguous inputs the construction is exact: terms sampled
      // from the normalized graph were already denoted by the raw one.
      if (Exact && !N.isBottomGraph())
        if (auto T = Gen.sample(N, N.root(), 6)) {
          EXPECT_TRUE(Membership(Raw, Sig.Syms).accepts(Raw.root(), *T));
          ++Checked;
        }
    }
  }
  // The generator must not have degenerated into all-bottom graphs.
  EXPECT_GT(Checked, NumGraphs);
}

TEST(NormalizePropertyTest, CachedRestrictAndConstructMatchUncached) {
  Signature Sig;
  GraphGen Gen(Sig, 7);
  NormalizeOptions Norm;
  OpCache Ops(Sig.Syms, Norm);
  for (uint32_t I = 0; I != NumGraphs; ++I) {
    TypeGraph N = normalizeGraph(Gen.randomRaw(), Sig.Syms);
    for (FunctorId Fn : {Sig.F1, Sig.G2, Sig.A0, Sig.Lit}) {
      std::vector<TypeGraph> Raw, Cached;
      bool OkRaw = graphRestrict(N, Fn, Sig.Syms, Norm, Raw);
      bool OkCached = Ops.restrictOf(N, Fn, Cached);
      ASSERT_EQ(OkRaw, OkCached);
      ASSERT_EQ(Raw.size(), Cached.size());
      for (size_t J = 0; J != Raw.size(); ++J)
        EXPECT_TRUE(graphEquals(Raw[J], Cached[J], Sig.Syms));
      if (OkRaw && !Raw.empty()) {
        TypeGraph CRaw = graphConstruct(Fn, Raw, Sig.Syms, Norm);
        TypeGraph CCached = Ops.constructOf(Fn, Cached);
        EXPECT_TRUE(structuralEqual(CRaw, CCached));
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// 6. Certified-operand routes against the full pipeline.
//===----------------------------------------------------------------------===//

/// Vertex-for-vertex equality with an equal certificate: both graphs are
/// compacted, so equal BFS-canonical shapes with equal roots and vertex
/// counts mean identical node arrays.
::testing::AssertionResult sameGraph(const TypeGraph &Route,
                                     const TypeGraph &Full) {
  if (!structuralEqual(Route, Full))
    return ::testing::AssertionFailure() << "shapes differ";
  if (Route.root() != Full.root() || Route.numNodes() != Full.numNodes())
    return ::testing::AssertionFailure() << "numbering differs";
  if (!Route.sameCertificate(Full))
    return ::testing::AssertionFailure() << "certificates differ";
  return ::testing::AssertionSuccess();
}

/// The naive construct shape f(copies), rooted at a fresh or-vertex.
TypeGraph naiveConstruct(FunctorId Fn, const std::vector<TypeGraph> &Args) {
  TypeGraph Raw;
  SuccList ArgOrs;
  for (const TypeGraph &A : Args)
    ArgOrs.push_back(copySubgraph(A, A.root(), Raw));
  NodeId F = Raw.addFunc(Fn, std::move(ArgOrs));
  Raw.setRoot(Raw.addOr({F}));
  return Raw;
}

/// Full-pipeline restrict: normalizeFrom on each argument or-vertex of
/// the root's \p Fn alternative; false when the root has none (the Any
/// and Int alternatives do not normalize anything and are left to the
/// other tests).
bool fullRestrict(const TypeGraph &V, FunctorId Fn, const SymbolTable &Syms,
                  const NormalizeOptions &Opts, std::vector<TypeGraph> &Out,
                  std::vector<NodeId> &ArgOrs) {
  Out.clear();
  ArgOrs.clear();
  if (V.isBottomGraph())
    return false;
  for (NodeId S : V.node(V.root()).Succs) {
    const TGNode &N = V.node(S);
    if (N.Kind != NodeKind::Func || N.Fn != Fn)
      continue;
    for (NodeId ArgOr : N.Succs) {
      ArgOrs.push_back(ArgOr);
      Out.push_back(normalizeFrom(V, {ArgOr}, Syms, Opts));
    }
    return true;
  }
  return false;
}

/// True if a vertex reachable from \p X lies outside X's BFS-tree
/// subtree (a back edge leaves the subtree for a proper ancestor of X).
bool escapesSubtree(const TypeGraph &G, NodeId X) {
  TypeGraph::Topology Topo = G.computeTopology();
  std::vector<NodeId> Stack{X};
  std::set<NodeId> Seen{X};
  while (!Stack.empty()) {
    NodeId V = Stack.back();
    Stack.pop_back();
    NodeId P = V;
    while (P != X && P != InvalidNode)
      P = Topo.Parent[P];
    if (P != X)
      return true;
    for (NodeId S : G.node(V).Succs)
      if (Seen.insert(S).second)
        Stack.push_back(S);
  }
  return false;
}

/// The generator pool certified for \p Opts, plus the certified make*
/// constructors (not BFS-numbered).
std::vector<TypeGraph> certifiedPool(Signature &Sig, uint32_t Seed,
                                     const NormalizeOptions &Opts,
                                     uint32_t Size) {
  GraphGen Gen(Sig, Seed);
  std::vector<TypeGraph> Pool{TypeGraph::makeAny(), TypeGraph::makeInt(),
                              TypeGraph::makeFunctorOfAny(Sig.Syms, Sig.F1),
                              TypeGraph::makeFunctorOfAny(Sig.Syms, Sig.G2)};
  while (Pool.size() != Size) {
    TypeGraph N = normalizeGraph(Gen.randomRaw(), Sig.Syms, Opts);
    if (N.isCertified() && !N.isBottomGraph())
      Pool.push_back(std::move(N));
  }
  return Pool;
}

TEST(NormalizePropertyTest, CertifiedRoutesMatchFullPipeline) {
  Signature Sig;
  constexpr uint32_t PoolSize = 60;
  uint32_t Unions = 0, Constructs = 0, NaiveConstructs = 0;
  uint32_t RestrictedArgs = 0, ClosedArgs = 0, EscapingArgs = 0;
  uint32_t Widenings = 0, WideningShortcuts = 0;
  for (uint32_t OrCap : {0u, 5u, 2u})
    for (uint32_t MaxDepth : {0u, 3u}) {
      NormalizeOptions Opts;
      Opts.OrCap = OrCap;
      Opts.MaxDepth = MaxDepth;
      SCOPED_TRACE(::testing::Message()
                   << "OrCap " << OrCap << " MaxDepth " << MaxDepth);
      std::vector<TypeGraph> Pool =
          certifiedPool(Sig, 977 + OrCap * 10 + MaxDepth, Opts, PoolSize);

      // Union: the pair-state route. Its certified results join the
      // restrict operands below.
      std::vector<TypeGraph> Operands = Pool;
      for (uint32_t I = 0; I != PoolSize; ++I)
        for (uint32_t Step : {1u, 3u, 11u}) {
          const TypeGraph &A = Pool[I];
          const TypeGraph &B = Pool[(I + Step) % PoolSize];
          TypeGraph U = graphUnion(A, B, Sig.Syms, Opts);
          TypeGraph Full = reference::unionByFullPipeline(A, B, Sig.Syms, Opts);
          EXPECT_TRUE(sameGraph(U, Full))
              << "union of pool graphs " << I << " and "
              << (I + Step) % PoolSize;
          ++Unions;
          if (U.isCertified())
            Operands.push_back(std::move(U));
        }

      // Construct: the direct route (MaxDepth 0) or its declines.
      for (uint32_t I = 0; I != PoolSize; ++I) {
        std::vector<std::pair<FunctorId, std::vector<TypeGraph>>> Cases{
            {Sig.F1, {Pool[I]}},
            {Sig.H1, {Pool[I]}},
            {Sig.G2, {Pool[I], Pool[(I + 5) % PoolSize]}}};
        for (const auto &[Fn, Args] : Cases) {
          TypeGraph Raw = naiveConstruct(Fn, Args);
          TypeGraph Full = normalizeGraph(Raw, Sig.Syms, Opts);
          TypeGraph Route = graphConstruct(Fn, Args, Sig.Syms, Opts);
          EXPECT_TRUE(sameGraph(Route, Full))
              << "construct over pool graph " << I;
          ++Constructs;
          NaiveConstructs += structuralEqual(Raw.compact(), Full);
        }
      }

      // Restrict: closed subtrees are copied, escaping ones determinized
      // over single or-vertices.
      for (size_t I = 0; I != Operands.size(); ++I)
        for (FunctorId Fn : {Sig.F1, Sig.G2, Sig.A0, Sig.Lit}) {
          const TypeGraph &V = Operands[I];
          std::vector<TypeGraph> Route, Full;
          std::vector<NodeId> ArgOrs;
          bool Ok = graphRestrict(V, Fn, Sig.Syms, Opts, Route);
          if (!fullRestrict(V, Fn, Sig.Syms, Opts, Full, ArgOrs))
            continue; // no Fn alternative at the root
          ASSERT_TRUE(Ok);
          ASSERT_EQ(Route.size(), Full.size());
          for (size_t J = 0; J != Full.size(); ++J) {
            EXPECT_TRUE(sameGraph(Route[J], Full[J]))
                << "argument " << J << " of operand " << I;
            bool Escapes = escapesSubtree(V, ArgOrs[J]);
            ClosedArgs += !Escapes;
            EscapingArgs += Escapes;
            ++RestrictedArgs;
          }
        }

      // Widening: the union shortcut fires when the new graph includes
      // the old one; compare with the independent reference.
      WideningOptions WOpts;
      WOpts.Norm = Opts;
      for (uint32_t I = 0; I != PoolSize; ++I)
        for (uint32_t Step : {1u, 7u}) {
          const TypeGraph &Old = Pool[I];
          TypeGraph New =
              graphUnion(Old, Pool[(I + Step) % PoolSize], Sig.Syms, Opts);
          if (!New.isCertified())
            continue; // a depth-bound truncation: not a widening input
          TypeGraph Widened = graphWiden(Old, New, Sig.Syms, WOpts);
          EXPECT_TRUE(
              sameGraph(Widened, reference::widen(Old, New, Sig.Syms, WOpts)))
              << "widening of pool graph " << I;
          ++Widenings;
          WideningShortcuts += graphIncludes(New, Old, Sig.Syms) &&
                               !graphIncludes(Old, New, Sig.Syms);
        }
    }
  // Every route and both restrict outcomes were exercised.
  EXPECT_GT(Unions, 0u);
  EXPECT_GT(NaiveConstructs, Constructs / 2);
  EXPECT_GT(ClosedArgs, 0u);
  EXPECT_GT(EscapingArgs, 0u);
  EXPECT_GT(WideningShortcuts, Widenings / 4);
  EXPECT_GT(RestrictedArgs, 0u);
}

TEST(NormalizePropertyTest, ConstructDeclinesWhenAnArgumentRecursThroughRoot) {
  // T ::= a | h(f(T)). Constructing f(T) gives R ::= f(a | h(R)): the
  // argument's or-vertex {f(T)} denotes f(T) itself, so minimization
  // merges it with the new root and the result gains a back edge to the
  // root instead of the naive f(copy of T).
  Signature Sig;
  TypeGraph Raw;
  NodeId A = Raw.addFunc(Sig.A0, {});
  NodeId T = Raw.addOr({});
  NodeId Inner = Raw.addOr({Raw.addFunc(Sig.F1, {T})});
  Raw.node(T).Succs = {A, Raw.addFunc(Sig.H1, {Inner})};
  Raw.setRoot(T);
  TypeGraph TN = normalizeGraph(Raw, Sig.Syms);
  ASSERT_TRUE(TN.isCertified());

  NormalizeOptions Opts;
  TypeGraph Naive = naiveConstruct(Sig.F1, {TN});
  TypeGraph Full = normalizeGraph(Naive, Sig.Syms, Opts);
  TypeGraph Route = graphConstruct(Sig.F1, {TN}, Sig.Syms, Opts);
  EXPECT_TRUE(sameGraph(Route, Full));
  EXPECT_FALSE(structuralEqual(Route, Naive.compact()));
  // R: root or -> f -> or{a, h} -> h -> or, which is the root again.
  const TGNode &F = Route.node(Route.node(Route.root()).Succs[0]);
  ASSERT_EQ(F.Fn, Sig.F1);
  const TGNode &Mid = Route.node(F.Succs[0]);
  ASSERT_EQ(Mid.Succs.size(), 2u);
  const TGNode &H = Route.node(Mid.Succs[1]);
  ASSERT_EQ(H.Fn, Sig.H1);
  EXPECT_EQ(H.Succs[0], Route.root());
}

TEST(NormalizePropertyTest, RestrictOfAnEscapingArgumentIsDeterminized) {
  // V ::= a | g(W, W), W ::= b | h(V). Normalization unfolds the shared W
  // into two copies below g, each with a back edge to the root. The
  // first g argument reaches the root through h, so its subtree escapes;
  // re-rooting V there keeps the second copy of W as its own vertex,
  // while the canonical result is W' ::= b | h(a | g(W', W')).
  Signature Sig;
  TypeGraph Raw;
  NodeId V = Raw.addOr({});
  NodeId W = Raw.addOr({});
  Raw.node(W).Succs = {Raw.addFunc(Sig.B0, {}), Raw.addFunc(Sig.H1, {V})};
  Raw.node(V).Succs = {Raw.addFunc(Sig.A0, {}), Raw.addFunc(Sig.G2, {W, W})};
  Raw.setRoot(V);
  NormalizeOptions Opts;
  TypeGraph VN = normalizeGraph(Raw, Sig.Syms, Opts);
  ASSERT_TRUE(VN.isCertified());

  std::vector<TypeGraph> Route, Full;
  std::vector<NodeId> ArgOrs;
  ASSERT_TRUE(graphRestrict(VN, Sig.G2, Sig.Syms, Opts, Route));
  ASSERT_TRUE(fullRestrict(VN, Sig.G2, Sig.Syms, Opts, Full, ArgOrs));
  ASSERT_EQ(Route.size(), 2u);
  for (size_t J = 0; J != 2; ++J) {
    EXPECT_TRUE(escapesSubtree(VN, ArgOrs[J]));
    EXPECT_TRUE(sameGraph(Route[J], Full[J])) << "argument " << J;
    TypeGraph Sub = VN;
    Sub.setRoot(ArgOrs[J]);
    EXPECT_FALSE(structuralEqual(Sub.compact(), Route[J]))
        << "re-rooting an escaping subtree is not the canonical shape";
  }
  // W': root or -> h -> or{a, g} -> g, both of whose arguments are the
  // root again.
  const TypeGraph &R = Route[0];
  const TGNode &Root = R.node(R.root());
  ASSERT_EQ(Root.Succs.size(), 2u);
  const TGNode &H = R.node(Root.Succs[1]);
  ASSERT_EQ(H.Fn, Sig.H1);
  const TGNode &Mid = R.node(H.Succs[0]);
  ASSERT_EQ(Mid.Succs.size(), 2u);
  const TGNode &G = R.node(Mid.Succs[1]);
  ASSERT_EQ(G.Fn, Sig.G2);
  EXPECT_EQ(G.Succs[0], R.root());
  EXPECT_EQ(G.Succs[1], R.root());
}

TEST(NormalizePropertyTest, CappedPairUnionCollapsesAnOverfullStateToAny) {
  // Under or-cap 2, f(a | b) U f(c) pairs the argument or-vertices into a
  // state of or-degree 3, which becomes Any: the union is f(Any).
  Signature Sig;
  NormalizeOptions Opts;
  Opts.OrCap = 2;
  auto FOf = [&](std::vector<FunctorId> Alts) {
    TypeGraph Raw;
    SuccList Succs;
    for (FunctorId Fn : Alts)
      Succs.push_back(Raw.addFunc(Fn, {}));
    NodeId Arg = Raw.addOr(std::move(Succs));
    Raw.setRoot(Raw.addOr({Raw.addFunc(Sig.F1, {Arg})}));
    return normalizeGraph(Raw, Sig.Syms, Opts);
  };
  TypeGraph AB = FOf({Sig.A0, Sig.B0});
  TypeGraph C = FOf({Sig.C0});
  ASSERT_TRUE(AB.isNormalizedFor(2, Opts.MaxNodes, 0));
  ASSERT_TRUE(C.isNormalizedFor(2, Opts.MaxNodes, 0));
  TypeGraph Route = graphUnion(AB, C, Sig.Syms, Opts);
  TypeGraph Full = reference::unionByFullPipeline(AB, C, Sig.Syms, Opts);
  EXPECT_TRUE(sameGraph(Route, Full));
  EXPECT_TRUE(
      structuralEqual(Route, TypeGraph::makeFunctorOfAny(Sig.Syms, Sig.F1)));
}

TEST(NormalizePropertyTest, WideningShortcutRenumbersAnUnnumberedAny) {
  // makeAny() is certified but not BFS-numbered (its leaf is vertex 0).
  // It includes every old graph, so the widening's union shortcut takes
  // it as the union; the result must still be the full pipeline's
  // compacted, options-certified Any.
  Signature Sig;
  TypeGraph Any = TypeGraph::makeAny();
  ASSERT_FALSE(Any.isBfsNumbered());
  ASSERT_TRUE(Any.compact().isBfsNumbered());
  TypeGraph Old = normalizeGraph(
      naiveConstruct(Sig.F1, {TypeGraph::makeInt()}), Sig.Syms);
  ASSERT_TRUE(Old.isBfsNumbered());
  for (uint32_t OrCap : {0u, 2u}) {
    WideningOptions Opts;
    Opts.Norm.OrCap = OrCap;
    TypeGraph Widened = graphWiden(Old, Any, Sig.Syms, Opts);
    TypeGraph Full =
        reference::unionByFullPipeline(Old, Any, Sig.Syms, Opts.Norm);
    EXPECT_TRUE(sameGraph(Widened, Full));
    EXPECT_TRUE(sameGraph(Widened, reference::widen(Old, Any, Sig.Syms, Opts)));
    EXPECT_TRUE(Widened.isBfsNumbered());
  }
}

} // namespace
