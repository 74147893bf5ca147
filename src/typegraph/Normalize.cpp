//===- typegraph/Normalize.cpp ---------------------------------------------=//

#include "typegraph/Normalize.h"

#include "support/Cancellation.h"
#include "support/Debug.h"
#include "support/FaultInject.h"
#include "support/Hashing.h"
#include "support/SmallVector.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

using namespace gaia;

namespace {

/// Sentinel constituents inside state keys. Any two Any leaves (resp. Int
/// leaves) are interchangeable, so they canonicalize to one marker each;
/// nullary functor vertices are canonicalized to their functor id (high
/// bit set) because their denotation is determined by the functor alone.
/// This canonicalization is what makes the subset test of the collapsing
/// union meaningful across graphs.
constexpr NodeId AnyMarker = 0xFFFFFFFE;
constexpr NodeId IntMarker = 0xFFFFFFFD;
constexpr NodeId NullaryFlag = 0x80000000;

static bool isNullaryMarker(NodeId V) {
  return (V & NullaryFlag) != 0 && V != AnyMarker && V != IntMarker;
}

/// The thread-local fallback scratch for callers that do not own one.
static NormalizeScratch &scratchOr(NormalizeScratch *S) {
  static thread_local NormalizeScratch TLS;
  return S ? *S : TLS;
}

/// Deterministic-automaton state produced by the subset construction.
struct DetState {
  bool IsAny = false;
  bool HasInt = false;
  /// Sorted by functor (name, arity); each entry maps a functor to the
  /// ids of the argument states.
  std::vector<std::pair<FunctorId, std::vector<uint32_t>>> Trans;
  bool Productive = false;
};

/// Expands \p Roots through nested or-vertices into leaf/functor
/// constituents and canonicalizes into a sorted unique key, assembled in
/// \p Scratch.KeyBuf (valid until the next closureKey call).
static void closureKey(const TypeGraph &G, const NodeId *Roots,
                       size_t NumRoots, NormalizeScratch &Scratch) {
  std::vector<NodeId> &Key = Scratch.KeyBuf;
  std::vector<NodeId> &Stack = Scratch.Stack;
  Key.clear();
  Stack.assign(Roots, Roots + NumRoots);
  Scratch.beginEpoch(G.numNodes());
  bool HasAny = false, HasInt = false;
  while (!Stack.empty()) {
    NodeId V = Stack.back();
    Stack.pop_back();
    const TGNode &N = G.node(V);
    switch (N.Kind) {
    case NodeKind::Any:
      HasAny = true;
      break;
    case NodeKind::Int:
      HasInt = true;
      break;
    case NodeKind::Func:
      if (N.Succs.empty()) {
        assert((N.Fn & NullaryFlag) == 0 && "functor id overflows marker");
        Key.push_back(N.Fn | NullaryFlag);
      } else {
        Key.push_back(V);
      }
      break;
    case NodeKind::Or:
      if (!Scratch.marked(V)) {
        Scratch.mark(V);
        for (NodeId S : N.Succs)
          Stack.push_back(S);
      }
      break;
    }
  }
  if (HasAny) {
    Key.assign(1, AnyMarker);
    return;
  }
  std::sort(Key.begin(), Key.end());
  Key.erase(std::unique(Key.begin(), Key.end()), Key.end());
  if (HasInt)
    Key.push_back(IntMarker);
}

/// Transparent (vector / raw-span) hashing for the state-key map, so a
/// lookup of the scratch key buffer does not materialize a vector.
struct KeyView {
  const NodeId *Data;
  size_t Size;
};
struct KeyHash {
  using is_transparent = void;
  size_t operator()(const std::vector<NodeId> &V) const {
    return hash(V.data(), V.size());
  }
  size_t operator()(const KeyView &K) const { return hash(K.Data, K.Size); }
  static size_t hash(const NodeId *D, size_t N) {
    std::size_t Seed = N;
    for (size_t I = 0; I != N; ++I)
      hashCombine(Seed, D[I]);
    return Seed;
  }
};
struct KeyEq {
  using is_transparent = void;
  static bool eq(const NodeId *A, size_t NA, const NodeId *B, size_t NB) {
    return NA == NB && std::equal(A, A + NA, B);
  }
  bool operator()(const std::vector<NodeId> &A,
                  const std::vector<NodeId> &B) const {
    return eq(A.data(), A.size(), B.data(), B.size());
  }
  bool operator()(const KeyView &A, const std::vector<NodeId> &B) const {
    return eq(A.Data, A.Size, B.data(), B.size());
  }
  bool operator()(const std::vector<NodeId> &A, const KeyView &B) const {
    return eq(A.data(), A.size(), B.Data, B.Size);
  }
  bool operator()(const KeyView &A, const KeyView &B) const {
    return eq(A.Data, A.Size, B.Data, B.Size);
  }
};

/// Shared machinery for both subset constructions: state storage,
/// transition computation, productivity pruning and the unfolding step.
class DetBuilderBase {
public:
  DetBuilderBase(const TypeGraph &G, const SymbolTable &Syms,
                 const NormalizeOptions &Opts, NormalizeScratch &Scratch)
      : G(G), Syms(Syms), Opts(Opts), Scratch(Scratch) {}

protected:
  /// Computes the functor transitions of state \p Id from its key. Each
  /// argument state is requested through \p ArgState, which differs
  /// between the exact and the collapsing construction. Re-entrant (the
  /// collapsing construction recurses through ArgState), so the
  /// per-invocation buffers are inline-storage locals, not scratch.
  template <typename ArgStateFn>
  void computeTransitions(uint32_t Id, ArgStateFn ArgState) {
    // StateKeys is a deque: growth through ArgState's state creation
    // does not invalidate this reference.
    const std::vector<NodeId> &Key = StateKeys[Id];
    if (!Key.empty() && Key[0] == AnyMarker) {
      States[Id].IsAny = true;
      return;
    }
    bool HasInt = !Key.empty() && Key.back() == IntMarker;

    // Functor constituents in (name, arity) order via the memoized
    // functor ranks; a stable sort keeps same-functor members in key
    // (ascending vertex id) order, matching the historic grouping.
    struct FnConst {
      FunctorId Fn;
      NodeId V; ///< InvalidNode for nullary markers
    };
    SmallVector<FnConst, 8> Consts;
    for (NodeId V : Key) {
      if (V == IntMarker)
        continue;
      FunctorId Fn = isNullaryMarker(V) ? (V & ~NullaryFlag) : G.node(V).Fn;
      if (HasInt && Syms.isIntegerLiteral(Fn))
        continue; // absorbed by Int
      Consts.push_back({Fn, isNullaryMarker(V) ? InvalidNode : V});
    }
    std::stable_sort(Consts.begin(), Consts.end(),
                     [&](const FnConst &A, const FnConst &B) {
                       return Syms.functorRank(A.Fn) <
                              Syms.functorRank(B.Fn);
                     });

    // Or-degree cap of Section 9 (count distinct functors).
    uint32_t Degree = HasInt ? 1 : 0;
    for (size_t I = 0; I != Consts.size(); ++I)
      if (I == 0 || Consts[I].Fn != Consts[I - 1].Fn)
        ++Degree;
    if (Opts.OrCap != 0 && Degree > Opts.OrCap) {
      States[Id].IsAny = true;
      return;
    }

    std::vector<std::pair<FunctorId, std::vector<uint32_t>>> Trans;
    for (size_t I = 0; I != Consts.size();) {
      FunctorId Fn = Consts[I].Fn;
      size_t E = I;
      while (E != Consts.size() && Consts[E].Fn == Fn)
        ++E;
      uint32_t Arity = Syms.functorArity(Fn);
      std::vector<uint32_t> Args;
      Args.reserve(Arity);
      for (uint32_t J = 0; J != Arity; ++J) {
        SmallVector<NodeId, 8> ArgRoots;
        for (size_t K = I; K != E; ++K)
          if (Consts[K].V != InvalidNode)
            ArgRoots.push_back(G.node(Consts[K].V).Succs[J]);
        Args.push_back(ArgState(ArgRoots.data(), ArgRoots.size()));
      }
      Trans.emplace_back(Fn, std::move(Args));
      I = E;
    }
    States[Id].HasInt = HasInt;
    States[Id].Trans = std::move(Trans);
  }

  void computeProductivity() {
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (DetState &S : States) {
        if (S.Productive)
          continue;
        bool Prod = S.IsAny || S.HasInt;
        if (!Prod) {
          for (const auto &[Fn, Args] : S.Trans) {
            bool AllProd = true;
            for (uint32_t A : Args)
              if (!States[A].Productive) {
                AllProd = false;
                break;
              }
            if (AllProd) {
              Prod = true;
              break;
            }
          }
        }
        if (Prod) {
          S.Productive = true;
          Changed = true;
        }
      }
    }
    for (DetState &S : States) {
      std::erase_if(S.Trans, [&](const auto &T) {
        for (uint32_t A : T.second)
          if (!States[A].Productive)
            return true;
        return false;
      });
    }
  }

  NodeId unfold(uint32_t St, TypeGraph &Out,
                std::vector<std::pair<uint32_t, NodeId>> &Path) {
    for (const auto &[S, N] : Path)
      if (S == St)
        return N; // back edge to an ancestor or-vertex
    const DetState &State = States[St];
    NodeId Or = Out.addOr({});
    if (State.IsAny || Out.numNodes() > Opts.MaxNodes ||
        (Opts.MaxDepth != 0 && Path.size() >= Opts.MaxDepth)) {
      // A defensive-bound collapse (node or depth budget) loses the
      // certificate: re-normalizing the truncated result may merge the
      // states the truncation made equivalent.
      if (!State.IsAny)
        Truncated = true;
      NodeId Leaf = Out.addAny();
      Out.node(Or).Succs = {Leaf};
      return Or;
    }
    Path.emplace_back(St, Or);
    SuccList Children;
    if (State.HasInt)
      Children.push_back(Out.addInt());
    for (const auto &[Fn, Args] : State.Trans) {
      SuccList ArgOrs;
      ArgOrs.reserve(Args.size());
      for (uint32_t A : Args)
        ArgOrs.push_back(unfold(A, Out, Path));
      Children.push_back(Out.addFunc(Fn, std::move(ArgOrs)));
    }
    Path.pop_back();
    Out.node(Or).Succs = std::move(Children);
    return Or;
  }

  /// Merges language-equivalent states (Myhill-Nerode partition
  /// refinement on the deterministic automaton). Keeps the graphs the
  /// analysis manipulates canonical and small — the paper's central
  /// engineering concern. Uses the scratch-owned hash tables: the
  /// partition signature of a state is an integer sequence, so ordering
  /// the blocks by a tree map (as the seed implementation did) bought
  /// nothing but O(log n) vector comparisons per state per round.
  uint32_t minimize(uint32_t Root) {
    auto &BlockIds = Scratch.Blocks;
    auto &NextIds = Scratch.NextBlocks;
    std::vector<uint64_t> &Sig = Scratch.SigBuf;
    BlockIds.clear();
    // Transparent probe-then-copy: the signature buffer is only
    // materialized into the table for genuinely new blocks.
    auto BlockFor = [&Sig](auto &Ids) {
      auto It = Ids.find(U64View{Sig.data(), Sig.size()});
      if (It != Ids.end())
        return It->second;
      return Ids.emplace(Sig, static_cast<uint32_t>(Ids.size()))
          .first->second;
    };
    // Initial partition: by (IsAny, HasInt, functor list).
    std::vector<uint32_t> Block(States.size(), 0);
    for (size_t I = 0; I != States.size(); ++I) {
      const DetState &S = States[I];
      Sig.clear();
      Sig.push_back(S.IsAny ? 1 : 0);
      Sig.push_back(S.HasInt ? 1 : 0);
      for (const auto &[Fn, Args] : S.Trans)
        Sig.push_back(Fn);
      Block[I] = BlockFor(BlockIds);
    }
    // Refine until stable.
    std::vector<uint32_t> Next(States.size(), 0);
    while (true) {
      // One refinement round touches every state; on a large automaton
      // the rounds-until-stable tail is the other place a deadline can
      // silently burn.
      if (Opts.Cancel)
        Opts.Cancel->poll();
      NextIds.clear();
      for (size_t I = 0; I != States.size(); ++I) {
        Sig.clear();
        Sig.push_back(Block[I]);
        for (const auto &[Fn, Args] : States[I].Trans) {
          Sig.push_back(Fn);
          for (uint32_t A : Args)
            Sig.push_back(Block[A]);
        }
        Next[I] = BlockFor(NextIds);
      }
      bool Stable = NextIds.size() == BlockIds.size();
      Block.swap(Next);
      std::swap(BlockIds, NextIds);
      if (Stable)
        break;
    }
    // Rebuild one representative state per block.
    std::vector<DetState> Merged(BlockIds.size());
    std::vector<bool> Done(BlockIds.size(), false);
    for (size_t I = 0; I != States.size(); ++I) {
      uint32_t B = Block[I];
      if (Done[B])
        continue;
      Done[B] = true;
      DetState S = States[I];
      for (auto &[Fn, Args] : S.Trans)
        for (uint32_t &A : Args)
          A = Block[A];
      Merged[B] = std::move(S);
    }
    uint32_t NewRoot = Block[Root];
    States = std::move(Merged);
    return NewRoot;
  }

  TypeGraph finish(uint32_t Root) {
    computeProductivity();
    if (!States[Root].Productive)
      return TypeGraph::makeBottom();
    Root = minimize(Root);
    TypeGraph Out;
    std::vector<std::pair<uint32_t, NodeId>> Path;
    NodeId OutRoot = unfold(Root, Out, Path);
    Out.setRoot(OutRoot);
    Out.sortOrSuccessors(Syms);
    TypeGraph Result = Out.compact();
#ifndef NDEBUG
    std::string Why;
    assert(Result.validate(Syms, &Why) && "normalization must restore all "
                                          "restrictions");
#endif
    // Certify the result: a second normalization under the same options
    // would reproduce it, unless a defensive unfold bound fired (the
    // or-cap is applied before minimization and is idempotent).
    if (!Truncated)
      Result.markNormalized(Opts.OrCap, Opts.MaxNodes, Opts.MaxDepth);
    return Result;
  }

  const TypeGraph &G;
  const SymbolTable &Syms;
  const NormalizeOptions &Opts;
  NormalizeScratch &Scratch;
  std::vector<DetState> States;
  std::deque<std::vector<NodeId>> StateKeys;
  bool Truncated = false;
};

/// Exact subset construction (worklist based): language-preserving.
class Determinizer : public DetBuilderBase {
public:
  using DetBuilderBase::DetBuilderBase;

  TypeGraph run(const std::vector<NodeId> &Start) {
    uint32_t Root = stateFor(Start.data(), Start.size());
    drainWorklist();
    return finish(Root);
  }

  GrammarAutomaton automaton(const std::vector<NodeId> &Start) {
    uint32_t Root = stateFor(Start.data(), Start.size());
    drainWorklist();
    computeProductivity();
    GrammarAutomaton A;
    if (!States[Root].Productive) {
      A.Empty = true;
      return A;
    }
    Root = minimize(Root);
    // Keep only states reachable from the root.
    std::vector<uint32_t> Remap(States.size(), ~0u);
    std::vector<uint32_t> Work{Root};
    Remap[Root] = 0;
    A.States.emplace_back();
    while (!Work.empty()) {
      uint32_t S = Work.back();
      Work.pop_back();
      GrammarAutomaton::State St;
      St.IsAny = States[S].IsAny;
      St.HasInt = States[S].HasInt;
      for (const auto &[Fn, Args] : States[S].Trans) {
        std::vector<uint32_t> NewArgs;
        for (uint32_t Arg : Args) {
          if (Remap[Arg] == ~0u) {
            Remap[Arg] = static_cast<uint32_t>(A.States.size());
            A.States.emplace_back();
            Work.push_back(Arg);
          }
          NewArgs.push_back(Remap[Arg]);
        }
        St.Trans.emplace_back(Fn, std::move(NewArgs));
      }
      A.States[Remap[S]] = std::move(St);
    }
    A.Root = 0;
    return A;
  }

private:
  void drainWorklist() {
    // Worklist ids are assigned densely, so the list is just "next state
    // to process": every state >= Cursor still needs its transitions.
    while (Cursor != States.size()) {
      uint32_t Id = Cursor++;
      // The subset construction is the one normalization phase with no
      // a-priori size bound (state count can be exponential in the input
      // before a cap fires), so this is where a deadline-carrying job
      // polls between the engine's per-round checkpoints.
      if (Opts.Cancel && (Id & 63u) == 0)
        Opts.Cancel->poll();
      computeTransitions(Id, [this](const NodeId *Roots, size_t N) {
        return stateFor(Roots, N);
      });
    }
  }

  uint32_t stateFor(const NodeId *Roots, size_t NumRoots) {
    closureKey(G, Roots, NumRoots, Scratch);
    const std::vector<NodeId> &Key = Scratch.KeyBuf;
    auto It = StateIds.find(KeyView{Key.data(), Key.size()});
    if (It != StateIds.end())
      return It->second;
    uint32_t Id = static_cast<uint32_t>(States.size());
    States.emplace_back();
    StateKeys.push_back(Key);
    StateIds.emplace(Key, Id);
    return Id;
  }

  std::unordered_map<std::vector<NodeId>, uint32_t, KeyHash, KeyEq> StateIds;
  uint32_t Cursor = 0;
};

/// The collapsing union used by the widening's replacement rule: a DFS
/// subset construction that reuses an *ancestor* state whenever the new
/// state's constituents are a subset of the ancestor's. This is the
/// paper's "variant of the union operation which avoids creating
/// or-vertices which would lead to a growth in size": reusing the
/// ancestor over-approximates (the ancestor's language contains the
/// state's) and ties the recursion into a cycle instead of unrolling.
class Collapser : public DetBuilderBase {
public:
  using DetBuilderBase::DetBuilderBase;

  TypeGraph run(const std::vector<NodeId> &Start) {
    closureKey(G, Start.data(), Start.size(), Scratch);
    uint32_t Root = stateFor(Scratch.KeyBuf);
    return finish(Root);
  }

private:
  uint32_t stateFor(const std::vector<NodeId> &KeyIn) {
    auto It = StateIds.find(KeyIn);
    if (It != StateIds.end())
      return It->second;
    // Collapse into an ancestor whose constituents cover this state.
    for (auto PIt = PathKeys.rbegin(), PEnd = PathKeys.rend(); PIt != PEnd;
         ++PIt) {
      const std::vector<NodeId> &AncKey = StateKeys[*PIt];
      if (AncKey.size() == 1 && AncKey[0] == AnyMarker)
        return *PIt; // Any covers everything
      if (std::includes(AncKey.begin(), AncKey.end(), KeyIn.begin(),
                        KeyIn.end()))
        return *PIt;
    }
    std::vector<NodeId> Key = KeyIn; // own it; the recursion below
                                     // clobbers the scratch buffer
    uint32_t Id = static_cast<uint32_t>(States.size());
    // Same rationale as Determinizer::drainWorklist: state creation is
    // the unbounded dimension of the collapsing construction.
    if (Opts.Cancel && (Id & 63u) == 0)
      Opts.Cancel->poll();
    States.emplace_back();
    StateKeys.push_back(Key);
    StateIds.emplace(std::move(Key), Id);
    PathKeys.push_back(Id);
    computeTransitions(Id, [this](const NodeId *Roots, size_t N) {
      closureKey(G, Roots, N, Scratch);
      return stateFor(Scratch.KeyBuf);
    });
    PathKeys.pop_back();
    return Id;
  }

  std::unordered_map<std::vector<NodeId>, uint32_t, KeyHash, KeyEq> StateIds;
  std::vector<uint32_t> PathKeys;
};

/// The subset construction specialized to two certified (deterministic)
/// graphs: a state is a pair (or-vertex of G1 or none, or-vertex of G2 or
/// none), and its constituents are the two successor lists, so the
/// closure keys, their hashing and the functor sort are replaced by a
/// pair-table probe and a merge of two rank-sorted lists. Each pair state
/// maps to the subset state of the same two vertices with identical
/// flags and transitions, which is why finish() reaches the same minimal
/// automaton and hence the same graph.
class PairDeterminizer : public DetBuilderBase {
public:
  PairDeterminizer(const TypeGraph &G1, const TypeGraph &G2,
                   const SymbolTable &Syms, const NormalizeOptions &Opts,
                   NormalizeScratch &Scratch)
      : DetBuilderBase(G1, Syms, Opts, Scratch), G2(G2) {}

  TypeGraph run(NodeId V1, NodeId V2) {
    Scratch.PairIds.begin();
    Scratch.StatePairs.clear();
    uint32_t Root = stateFor(V1, V2);
    for (uint32_t Id = 0; Id != States.size(); ++Id) {
      // Same poll cadence as Determinizer::drainWorklist.
      if (Opts.Cancel && (Id & 63u) == 0)
        Opts.Cancel->poll();
      pairTransitions(Id);
    }
    return finish(Root);
  }

private:
  uint32_t stateFor(NodeId V1, NodeId V2) {
    auto [Id, Inserted] = Scratch.PairIds.insert(
        V1, V2, static_cast<uint32_t>(States.size()));
    if (Inserted) {
      States.emplace_back();
      Scratch.StatePairs.emplace_back(V1, V2);
    }
    return Id;
  }

  /// computeTransitions for a pair state. Certified or-vertices satisfy
  /// Isolated-Any and list Int and functors in functor-rank order
  /// (TypeGraph::sortOrSuccessors), one vertex per functor.
  void pairTransitions(uint32_t Id) {
    auto [V1, V2] = Scratch.StatePairs[Id];
    const SuccList *S1 = V1 == InvalidNode ? nullptr : &G.node(V1).Succs;
    const SuccList *S2 = V2 == InvalidNode ? nullptr : &G2.node(V2).Succs;
    auto HasKind = [](const TypeGraph &X, const SuccList *S, NodeKind K) {
      if (S)
        for (NodeId V : *S)
          if (X.node(V).Kind == K)
            return true;
      return false;
    };
    if (HasKind(G, S1, NodeKind::Any) || HasKind(G2, S2, NodeKind::Any)) {
      States[Id].IsAny = true;
      return;
    }
    bool HasInt =
        HasKind(G, S1, NodeKind::Int) || HasKind(G2, S2, NodeKind::Int);

    // Merge the two functor lists by rank; a functor on both sides pairs
    // its two vertices.
    struct FnPair {
      FunctorId Fn;
      NodeId F1, F2; ///< functor vertices, InvalidNode if absent
    };
    SmallVector<FnPair, 8> Fns;
    size_t I1 = 0, I2 = 0;
    size_t E1 = S1 ? S1->size() : 0, E2 = S2 ? S2->size() : 0;
    auto NextFunc = [](const TypeGraph &X, const SuccList *S, size_t &I,
                       size_t E) {
      while (I != E && X.node((*S)[I]).Kind != NodeKind::Func)
        ++I;
      return I == E ? InvalidNode : (*S)[I];
    };
    // An exhausted side ranks last, so each step takes the lower-ranked
    // functor, or both vertices when the two sides share it.
    auto RankOf = [&](const TypeGraph &X, NodeId F) -> uint64_t {
      return F == InvalidNode ? UINT64_MAX : Syms.functorRank(X.node(F).Fn);
    };
    while (true) {
      NodeId F1 = NextFunc(G, S1, I1, E1);
      NodeId F2 = NextFunc(G2, S2, I2, E2);
      if (F1 == InvalidNode && F2 == InvalidNode)
        break;
      uint64_t R1 = RankOf(G, F1), R2 = RankOf(G2, F2);
      FnPair P{InvalidFunctor, InvalidNode, InvalidNode};
      if (R1 <= R2) {
        P.Fn = G.node(F1).Fn;
        P.F1 = F1;
        ++I1;
      }
      if (R2 <= R1) {
        P.Fn = G2.node(F2).Fn;
        P.F2 = F2;
        ++I2;
      }
      if (HasInt && Syms.isIntegerLiteral(P.Fn))
        continue; // absorbed by Int
      Fns.push_back(P);
    }

    // Or-degree cap of Section 9, counted as computeTransitions does.
    uint32_t Degree = (HasInt ? 1 : 0) + static_cast<uint32_t>(Fns.size());
    if (Opts.OrCap != 0 && Degree > Opts.OrCap) {
      States[Id].IsAny = true;
      return;
    }

    auto ArgOf = [](const TypeGraph &X, NodeId F, uint32_t J) {
      return F == InvalidNode ? InvalidNode : X.node(F).Succs[J];
    };
    std::vector<std::pair<FunctorId, std::vector<uint32_t>>> Trans;
    Trans.reserve(Fns.size());
    for (const FnPair &P : Fns) {
      uint32_t Arity = Syms.functorArity(P.Fn);
      std::vector<uint32_t> Args;
      Args.reserve(Arity);
      for (uint32_t J = 0; J != Arity; ++J)
        Args.push_back(stateFor(ArgOf(G, P.F1, J), ArgOf(G2, P.F2, J)));
      Trans.emplace_back(P.Fn, std::move(Args));
    }
    States[Id].HasInt = HasInt;
    States[Id].Trans = std::move(Trans);
  }

  const TypeGraph &G2;
};

} // namespace

TypeGraph gaia::normalizeGraph(const TypeGraph &G, const SymbolTable &Syms,
                               const NormalizeOptions &Opts,
                               NormalizeScratch *Scratch) {
  if (G.root() == InvalidNode)
    return TypeGraph::makeBottom();
  // A certified graph is a fixed point of this pipeline for these
  // options: copying it (certificate and interner caches included) is
  // exactly what the full construction would rebuild.
  if (G.isNormalizedFor(Opts.OrCap, Opts.MaxNodes, Opts.MaxDepth))
    return G;
  // Chaos probe after the certificate fast path: only normalizations
  // that actually run the determinizer can fault.
  GAIA_FAULT_POINT(Normalize);
  return Determinizer(G, Syms, Opts, scratchOr(Scratch)).run({G.root()});
}

TypeGraph gaia::normalizeFrom(const TypeGraph &G,
                              const std::vector<NodeId> &Start,
                              const SymbolTable &Syms,
                              const NormalizeOptions &Opts,
                              NormalizeScratch *Scratch) {
  if (Start.empty())
    return TypeGraph::makeBottom();
  return Determinizer(G, Syms, Opts, scratchOr(Scratch)).run(Start);
}

TypeGraph gaia::normalizeCertifiedPair(const TypeGraph &G1, NodeId V1,
                                       const TypeGraph &G2, NodeId V2,
                                       const SymbolTable &Syms,
                                       const NormalizeOptions &Opts,
                                       NormalizeScratch *Scratch) {
  assert((V1 != InvalidNode || V2 != InvalidNode) && "no start vertex");
  assert((V1 == InvalidNode ||
          G1.isNormalizedFor(Opts.OrCap, Opts.MaxNodes, Opts.MaxDepth)) &&
         (V2 == InvalidNode ||
          G2.isNormalizedFor(Opts.OrCap, Opts.MaxNodes, Opts.MaxDepth)) &&
         "pair states need certified (deterministic) operands");
  return PairDeterminizer(G1, G2, Syms, Opts, scratchOr(Scratch))
      .run(V1, V2);
}

TypeGraph gaia::collapsingUnionFrom(const TypeGraph &G,
                                    const std::vector<NodeId> &Start,
                                    const SymbolTable &Syms,
                                    const NormalizeOptions &Opts,
                                    NormalizeScratch *Scratch) {
  if (Start.empty())
    return TypeGraph::makeBottom();
  return Collapser(G, Syms, Opts, scratchOr(Scratch)).run(Start);
}

GrammarAutomaton gaia::buildAutomaton(const TypeGraph &G,
                                      const SymbolTable &Syms,
                                      NormalizeScratch *Scratch) {
  if (G.root() == InvalidNode || G.isBottomGraph()) {
    GrammarAutomaton A;
    A.Empty = true;
    return A;
  }
  NormalizeOptions Opts;
  return Determinizer(G, Syms, Opts, scratchOr(Scratch))
      .automaton({G.root()});
}
