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
///      keys on the latter).
///
//===----------------------------------------------------------------------===//

#include "ReferenceInterner.h"

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
  FunctorId A0, B0, C0, F1, G2, Lit;
  Signature() {
    A0 = Syms.functor("a", 0);
    B0 = Syms.functor("b", 0);
    C0 = Syms.functor("c", 0);
    F1 = Syms.functor("f", 1);
    G2 = Syms.functor("g", 2);
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

} // namespace
