//===- tests/InternerPropertyTest.cpp - Hash-consing / op-cache tests -----==//
///
/// \file
/// Seeded, deterministic property tests for the canonical-id layer:
///
///   - interning is language-preserving: the canonical representative of
///     intern(G) is language-equal to G;
///   - the canonical-id invariant: language-equal graphs (including
///     structurally different hand-built ones) receive equal ids, and
///     OpCache::equals is therefore an O(1) id comparison agreeing with
///     the two-walk graphEquals;
///   - cached operation results equal uncached recomputation across
///     union / intersection / inclusion / widening on generated graphs;
///   - differential: the interner assigns the same ids and keeps
///     structurally equal representatives as tests/ReferenceInterner.h,
///     which keys every graph on its minimal automaton, on streams that
///     mix certified outputs, uncertified spellings, depth-k truncations
///     and graphs above the structural index bound, split or not
///     between a frozen tier and an interner layered over it.
///
//===----------------------------------------------------------------------===//

#include "ReferenceInterner.h"

#include "support/GraphInterner.h"
#include "typegraph/GrammarParser.h"
#include "typegraph/GrammarPrinter.h"
#include "typegraph/GraphOps.h"
#include "typegraph/OpCache.h"
#include "typegraph/Widening.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace gaia;

namespace {

/// Random raw (pre-normalization) graph over a small functor alphabet.
/// Depth-bounded recursive construction; normalizeGraph turns the result
/// into the canonical form all analyzer values are in.
class GraphGen {
public:
  GraphGen(SymbolTable &Syms, uint32_t Seed) : Syms(Syms), Rng(Seed) {}

  TypeGraph graph(unsigned Depth) { return normalizeGraph(raw(Depth), Syms); }

  /// The pre-normalization graph: uncertified, and free to break the
  /// Principal-Functor restriction.
  TypeGraph raw(unsigned Depth) {
    TypeGraph G;
    NodeId Root = genOr(G, Depth);
    G.setRoot(Root);
    return G;
  }

  uint32_t next() { return Rng(); }

private:
  NodeId genOr(TypeGraph &G, unsigned Depth) {
    std::vector<NodeId> Alts;
    unsigned NumAlts = 1 + Rng() % 3;
    for (unsigned I = 0; I != NumAlts; ++I)
      Alts.push_back(genAlt(G, Depth));
    return G.addOr(std::move(Alts));
  }

  NodeId genAlt(TypeGraph &G, unsigned Depth) {
    switch (Rng() % (Depth == 0 ? 4u : 7u)) {
    case 0:
      return G.addAny();
    case 1:
      return G.addInt();
    case 2:
      return G.addFunc(Syms.nilFunctor(), {});
    case 3:
      return G.addFunc(Syms.functor("a", 0), {});
    case 4:
      return G.addFunc(Syms.consFunctor(),
                       {genOr(G, Depth - 1), genOr(G, Depth - 1)});
    case 5:
      return G.addFunc(Syms.functor("s", 1), {genOr(G, Depth - 1)});
    default:
      return G.addFunc(Syms.functor("f", 2),
                       {genOr(G, Depth - 1), genOr(G, Depth - 1)});
    }
  }

  SymbolTable &Syms;
  std::mt19937 Rng;
};

class InternerPropertyTest : public ::testing::TestWithParam<uint32_t> {
protected:
  TypeGraph parse(const char *Text) {
    std::string Err;
    std::optional<TypeGraph> G = parseGrammar(Text, Syms, &Err);
    EXPECT_TRUE(G.has_value()) << Err;
    return G ? *G : TypeGraph::makeBottom();
  }

  SymbolTable Syms;
};

TEST_P(InternerPropertyTest, InternIsLanguagePreserving) {
  GraphGen Gen(Syms, GetParam());
  GraphInterner Interner(Syms);
  for (unsigned I = 0; I != 20; ++I) {
    TypeGraph G = Gen.graph(1 + I % 3);
    CanonId Id = Interner.intern(G);
    EXPECT_TRUE(graphEquals(Interner.graph(Id), G, Syms))
        << "canonical representative changed the language of\n"
        << printGrammar(G, Syms);
    // Interning the same graph again is stable.
    EXPECT_EQ(Interner.intern(G), Id);
  }
}

TEST_P(InternerPropertyTest, LanguageEqualGraphsShareIds) {
  GraphGen Gen(Syms, GetParam() * 7919 + 17);
  GraphInterner Interner(Syms);
  for (unsigned I = 0; I != 12; ++I) {
    TypeGraph G = Gen.graph(1 + I % 3);
    CanonId Id = Interner.intern(G);
    // Language-preserving transformations must not mint new ids.
    EXPECT_EQ(Interner.intern(normalizeGraph(G, Syms)), Id);
    EXPECT_EQ(Interner.intern(graphUnion(G, G, Syms)), Id);
    EXPECT_EQ(Interner.intern(graphIntersect(G, G, Syms)), Id);
  }
}

TEST_P(InternerPropertyTest, CachedOpsEqualUncachedRecomputation) {
  GraphGen Gen(Syms, GetParam() * 104729 + 3);
  OpCache Ops(Syms, NormalizeOptions{});
  WideningOptions WOpts;
  for (unsigned I = 0; I != 10; ++I) {
    TypeGraph A = Gen.graph(1 + I % 3);
    TypeGraph B = Gen.graph(1 + (I + 1) % 3);

    TypeGraph U = Ops.unionOf(A, B);
    EXPECT_TRUE(graphEquals(U, graphUnion(A, B, Syms), Syms));
    TypeGraph M = Ops.intersectOf(A, B);
    EXPECT_TRUE(graphEquals(M, graphIntersect(A, B, Syms), Syms));
    EXPECT_EQ(Ops.includes(A, B), graphIncludes(A, B, Syms));
    EXPECT_EQ(Ops.includes(B, A), graphIncludes(B, A, Syms));
    TypeGraph W = Ops.widenOf(A, B, WOpts, nullptr);
    EXPECT_TRUE(graphEquals(W, graphWiden(A, B, Syms, WOpts), Syms));

    // Second round: answered from the cache, same results.
    uint64_t HitsBefore = Ops.stats().Hits;
    EXPECT_TRUE(graphEquals(Ops.unionOf(A, B), U, Syms));
    EXPECT_TRUE(graphEquals(Ops.unionOf(B, A), U, Syms)); // commutative key
    EXPECT_TRUE(graphEquals(Ops.intersectOf(A, B), M, Syms));
    EXPECT_TRUE(graphEquals(Ops.widenOf(A, B, WOpts, nullptr), W, Syms));
    EXPECT_GE(Ops.stats().Hits, HitsBefore + 4);
  }
}

TEST_P(InternerPropertyTest, EqualsMatchesGraphEquals) {
  GraphGen Gen(Syms, GetParam() * 31 + 5);
  OpCache Ops(Syms, NormalizeOptions{});
  std::vector<TypeGraph> Pool;
  for (unsigned I = 0; I != 8; ++I)
    Pool.push_back(Gen.graph(1 + I % 3));
  for (const TypeGraph &A : Pool)
    for (const TypeGraph &B : Pool)
      EXPECT_EQ(Ops.equals(A, B), graphEquals(A, B, Syms));
}

/// Interns \p Stream through the reference and through GraphInterner:
/// the first \p Split graphs through an interner that is then frozen,
/// the rest (and then the whole stream again) through one layered over
/// that tier. Ids and representatives must agree with the reference.
/// Returns the number of automaton keys both interners built.
uint64_t expectMatchesReference(const SymbolTable &Syms,
                                const std::vector<TypeGraph> &Stream,
                                size_t Split) {
  ReferenceInterner Ref(Syms);
  std::vector<CanonId> Want;
  for (const TypeGraph &G : Stream)
    Want.push_back(Ref.intern(G));

  GraphInterner First(Syms);
  for (size_t I = 0; I != Split; ++I)
    EXPECT_EQ(First.intern(Stream[I]), Want[I])
        << "graph " << I << " (split " << Split << ")";
  GraphInterner Layered(Syms, First.freeze());
  for (size_t Pass = 0; Pass != 2; ++Pass)
    for (size_t I = Pass ? 0 : Split; I != Stream.size(); ++I)
      EXPECT_EQ(Layered.intern(Stream[I]), Want[I])
          << "graph " << I << " (split " << Split << ", pass " << Pass
          << ")";
  EXPECT_EQ(Layered.size(), Ref.size());
  for (CanonId Id = 0; Id != std::min(Layered.size(), Ref.size()); ++Id)
    EXPECT_TRUE(structuralEqual(Layered.graph(Id), Ref.graph(Id)))
        << "representative of id " << Id << " (split " << Split << ")";
  return First.stats().AutomatonKeys + Layered.stats().AutomatonKeys;
}

/// Runs expectMatchesReference unsplit, split in the middle, and with
/// the whole stream in the tier.
uint64_t expectMatchesReferenceAllSplits(
    const SymbolTable &Syms, const std::vector<TypeGraph> &Stream) {
  uint64_t Keys = 0;
  for (size_t Split : {size_t(0), Stream.size() / 2, Stream.size()})
    Keys += expectMatchesReference(Syms, Stream, Split);
  return Keys;
}

TEST_P(InternerPropertyTest, MatchesAutomatonKeyedReference) {
  // Certified outputs under or-caps 0, 5 and 2, each next to (before or
  // after, by seed) uncertified spellings of itself or of its
  // uncapped language: the raw generator graph and the certificate-
  // stripped twin.
  GraphGen Gen(Syms, GetParam() * 2654435761u + 11);
  std::vector<TypeGraph> Stream;
  for (unsigned I = 0; I != 24; ++I) {
    TypeGraph Raw = Gen.raw(1 + I % 3);
    static constexpr uint32_t Caps[] = {0, 5, 2};
    NormalizeOptions Opts;
    Opts.OrCap = Caps[I % 3];
    TypeGraph N = normalizeGraph(Raw, Syms, Opts);
    ASSERT_TRUE(N.isCertified());
    std::vector<TypeGraph> Spellings{N, Raw, N.compact()};
    std::rotate(Spellings.begin(), Spellings.begin() + Gen.next() % 3,
                Spellings.end());
    Stream.insert(Stream.end(), Spellings.begin(), Spellings.end());
  }
  // Every language here fits the structural index: no automaton is
  // built.
  EXPECT_EQ(expectMatchesReferenceAllSplits(Syms, Stream), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InternerPropertyTest,
                         ::testing::Range(0u, 12u));

//===----------------------------------------------------------------------===//
// Deterministic corner cases.
//===----------------------------------------------------------------------===//

class InternerTest : public ::testing::Test {
protected:
  TypeGraph parse(const char *Text) {
    std::string Err;
    std::optional<TypeGraph> G = parseGrammar(Text, Syms, &Err);
    EXPECT_TRUE(G.has_value()) << Err;
    return G ? *G : TypeGraph::makeBottom();
  }

  SymbolTable Syms;
};

TEST_F(InternerTest, HandBuiltConstructorsInternCanonically) {
  GraphInterner Interner(Syms);
  // The hand-built make* graphs and their normalized forms must share
  // ids — this is what makes the structural fast path safe.
  EXPECT_EQ(Interner.intern(TypeGraph::makeAny()),
            Interner.intern(normalizeGraph(TypeGraph::makeAny(), Syms)));
  EXPECT_EQ(Interner.intern(TypeGraph::makeInt()),
            Interner.intern(normalizeGraph(TypeGraph::makeInt(), Syms)));
  EXPECT_EQ(Interner.intern(TypeGraph::makeBottom()),
            Interner.intern(normalizeGraph(TypeGraph::makeBottom(), Syms)));
  TypeGraph List = TypeGraph::makeAnyList(Syms);
  EXPECT_EQ(Interner.intern(List),
            Interner.intern(normalizeGraph(List, Syms)));
  // Distinct languages get distinct ids.
  EXPECT_NE(Interner.intern(TypeGraph::makeAny()),
            Interner.intern(TypeGraph::makeInt()));
  EXPECT_NE(Interner.intern(List), Interner.intern(TypeGraph::makeAny()));
}

TEST_F(InternerTest, StructurallyDifferentSpellingsShareAnId) {
  GraphInterner Interner(Syms);
  // Two grammars for the same language written differently: the second
  // has a redundant unfolding that normalization collapses, but we
  // intern a *hand-built* pre-collapse variant via parseGrammar (which
  // normalizes) plus the canonical list constructor.
  TypeGraph A = parse("T ::= [] | cons(Any,T).");
  TypeGraph B = TypeGraph::makeAnyList(Syms);
  EXPECT_EQ(Interner.intern(A), Interner.intern(B));
  EXPECT_EQ(Interner.stats().Misses, 1u);
}

TEST_F(InternerTest, HandBuiltSpellingsMatchReference) {
  // The uncertified make* list and a non-minimal unrolling of it, each
  // interned before and after the normalized list grammar, next to the
  // certified constructors.
  TypeGraph List = parse("T ::= [] | cons(Any,T).");
  // Root ::= [] | cons(Any, Inner), Inner ::= [] | cons(Any, Inner).
  TypeGraph Unrolled;
  {
    NodeId Inner = Unrolled.addOr({});
    NodeId InnerHead = Unrolled.addOr({Unrolled.addAny()});
    NodeId InnerNil = Unrolled.addFunc(Syms.nilFunctor(), {});
    NodeId InnerCons =
        Unrolled.addFunc(Syms.consFunctor(), {InnerHead, Inner});
    Unrolled.node(Inner).Succs = {InnerNil, InnerCons};
    NodeId Head = Unrolled.addOr({Unrolled.addAny()});
    NodeId Nil = Unrolled.addFunc(Syms.nilFunctor(), {});
    NodeId Cons = Unrolled.addFunc(Syms.consFunctor(), {Head, Inner});
    Unrolled.setRoot(Unrolled.addOr({Nil, Cons}));
    Unrolled.sortOrSuccessors(Syms);
  }
  std::string Why;
  ASSERT_TRUE(Unrolled.validate(Syms, &Why)) << Why;
  ASSERT_FALSE(structuralEqual(Unrolled, List));
  std::vector<TypeGraph> Certified{
      TypeGraph::makeAny(), TypeGraph::makeInt(), TypeGraph::makeBottom(),
      TypeGraph::makeFunctorOfAny(Syms, Syms.functor("f", 2))};
  for (bool ListFirst : {false, true}) {
    std::vector<TypeGraph> Stream;
    if (ListFirst)
      Stream.push_back(List);
    Stream.push_back(Unrolled);
    Stream.push_back(TypeGraph::makeAnyList(Syms));
    Stream.insert(Stream.end(), Certified.begin(), Certified.end());
    if (!ListFirst)
      Stream.push_back(List);
    EXPECT_EQ(expectMatchesReferenceAllSplits(Syms, Stream), 0u);
  }
}

TEST_F(InternerTest, DepthKTruncationMatchesReference) {
  TypeGraph Old = parse("T ::= s(s(s(a))).");
  TypeGraph New = parse("T ::= s(s(s(s(b)))) | [].");
  WideningOptions WOpts;
  WOpts.Mode = WidenMode::DepthK;
  WOpts.DepthK = 2;
  TypeGraph W = graphWiden(Old, New, Syms, WOpts);
  // The truncation voids the certificate, so W resolves through its
  // canonical form.
  ASSERT_FALSE(W.isCertified());
  TypeGraph Canonical = normalizeGraph(W, Syms);
  for (bool TruncatedFirst : {false, true}) {
    std::vector<TypeGraph> Stream{Old, New};
    if (TruncatedFirst)
      Stream.push_back(W);
    Stream.push_back(Canonical);
    if (!TruncatedFirst)
      Stream.push_back(W);
    EXPECT_EQ(expectMatchesReferenceAllSplits(Syms, Stream), 0u);
  }
}

TEST_F(InternerTest, GraphsAboveTheIndexBoundMatchReference) {
  // T0 ::= f(T1,T1), ..., T14 ::= f(T15,T15), T15 ::= a: a 16-state
  // automaton whose No-Sharing unfolding is a full binary tree of
  // 2 * (2^16 - 1) vertices, above the interner's structural index
  // bound. Raw, the grammar is a DAG of shared or-vertices.
  const unsigned Depth = 15;
  FunctorId F = Syms.functor("f", 2);
  TypeGraph Dag;
  NodeId Level = Dag.addOr({Dag.addFunc(Syms.functor("a", 0), {})});
  for (unsigned I = 0; I != Depth; ++I)
    Level = Dag.addOr({Dag.addFunc(F, {Level, Level})});
  Dag.setRoot(Level);
  NormalizeOptions Wide;
  Wide.MaxNodes = 1u << 20;
  TypeGraph Big = normalizeGraph(Dag, Syms, Wide);
  ASSERT_TRUE(Big.isCertified());
  ASSERT_GT(Big.numNodes(), NormalizeOptions{}.MaxNodes);
  ASSERT_FALSE(Dag.isCertified());
  TypeGraph Small = parse("T ::= f(a, b).");
  for (bool BigFirst : {false, true}) {
    std::vector<TypeGraph> Stream{Small};
    if (BigFirst)
      Stream.push_back(Big);
    Stream.push_back(Dag);
    if (!BigFirst)
      Stream.push_back(Big);
    // Both spellings of the big language are keyed on the automaton.
    EXPECT_GT(expectMatchesReferenceAllSplits(Syms, Stream), 0u);
  }
}

TEST_F(InternerTest, StructuralHashIsBfsCanonical) {
  // makeAny builds [Any, Or] with root 1; the normalized form is
  // [Or, Any] with root 0. Same BFS shape, same hash.
  TypeGraph A = TypeGraph::makeAny();
  TypeGraph B = normalizeGraph(A, Syms);
  EXPECT_EQ(structuralHash(A), structuralHash(B));
  EXPECT_TRUE(structuralEqual(A, B));
  EXPECT_FALSE(structuralEqual(A, TypeGraph::makeInt()));
}

} // namespace
