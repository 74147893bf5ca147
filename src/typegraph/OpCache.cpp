//===- typegraph/OpCache.cpp -----------------------------------------------=//

#include "typegraph/OpCache.h"

#include "support/FaultInject.h"
#include "typegraph/GraphOps.h"

#include <algorithm>
#include <utility>
#include <vector>

using namespace gaia;

bool OpCache::includes(const TypeGraph &Big, const TypeGraph &Small) {
  GAIA_FAULT_POINT(OpCacheLookup);
  CanonId B = Interned.intern(Big);
  CanonId S = Interned.intern(Small);
  if (B == S)
    return true; // same language
  auto Key = std::make_pair(B, S);
  if (Shared) {
    auto It = Shared->Incl.find(Key);
    if (It != Shared->Incl.end()) {
      ++St.SharedHits;
      return It->second != 0;
    }
  }
  auto It = Incl.find(Key);
  if (It != Incl.end()) {
    ++St.Hits;
    ++It->second.Hits;
    return It->second.Value != 0;
  }
  ++St.Misses;
  bool Result =
      graphIncludes(Interned.graph(B), Interned.graph(S), Syms, &WScratch);
  Incl.emplace(Key, Counted<uint8_t>{uint8_t(Result ? 1 : 0)});
  return Result;
}

TypeGraph OpCache::unionOf(const TypeGraph &A, const TypeGraph &B) {
  GAIA_FAULT_POINT(OpCacheLookup);
  CanonId IA = Interned.intern(A);
  CanonId IB = Interned.intern(B);
  // X U X = X — but only a *certified* canonical graph is known to be a
  // fixed point of re-normalization (a MaxNodes/MaxDepth truncation
  // withholds the certificate precisely because it breaks idempotence),
  // so an uncertified operand falls through to the historic compute.
  if (IA == IB && certified(IA)) {
    ++St.Hits;
    return Interned.graph(IA);
  }
  auto Key = std::make_pair(std::min(IA, IB), std::max(IA, IB));
  if (Shared) {
    auto It = Shared->Union.find(Key);
    if (It != Shared->Union.end()) {
      ++St.SharedHits;
      return Interned.graph(It->second);
    }
  }
  auto It = Union.find(Key);
  if (It != Union.end()) {
    ++St.Hits;
    ++It->second.Hits;
    return Interned.graph(It->second.Value);
  }
  ++St.Misses;
  // Inclusion fast path: when one language contains the other, the
  // union *is* the container — determinize/minimize are functions of
  // the operand language, and the container's certificate proves its
  // canonical unfold fits the bounds, so the computed union would
  // reproduce the container bit-for-bit and intern to exactly its id.
  // (Without the certificate a MaxNodes/MaxDepth truncation could fire
  // on the recomputation and over-approximate; the guard keeps the
  // shortcut unobservable in every configuration.) The inclusion checks
  // are memoized product walks, far cheaper than determinize + minimize
  // + unfold, and the recorded memo makes the next lookup a plain hit.
  if (certified(IA) && includes(Interned.graph(IA), Interned.graph(IB))) {
    Union.emplace(Key, Counted<CanonId>{IA});
    return Interned.graph(IA);
  }
  if (certified(IB) && includes(Interned.graph(IB), Interned.graph(IA))) {
    Union.emplace(Key, Counted<CanonId>{IB});
    return Interned.graph(IB);
  }
  CanonId R = Interned.intern(graphUnion(Interned.graph(IA),
                                         Interned.graph(IB), Syms, Norm,
                                         &Scratch));
  Union.emplace(Key, Counted<CanonId>{R});
  return Interned.graph(R);
}

TypeGraph OpCache::intersectOf(const TypeGraph &A, const TypeGraph &B) {
  GAIA_FAULT_POINT(OpCacheLookup);
  CanonId IA = Interned.intern(A);
  CanonId IB = Interned.intern(B);
  if (IA == IB && certified(IA)) { // X /\ X = X (see unionOf)
    ++St.Hits;
    return Interned.graph(IA);
  }
  auto Key = std::make_pair(std::min(IA, IB), std::max(IA, IB));
  if (Shared) {
    auto It = Shared->Inter.find(Key);
    if (It != Shared->Inter.end()) {
      ++St.SharedHits;
      return Interned.graph(It->second);
    }
  }
  auto It = Inter.find(Key);
  if (It != Inter.end()) {
    ++St.Hits;
    ++It->second.Hits;
    return Interned.graph(It->second.Value);
  }
  ++St.Misses;
  // Inclusion fast path (see unionOf): the intersection with a
  // containing language is the contained operand itself — guarded on
  // the *returned* operand's certificate for the same reason.
  if (certified(IB) && includes(Interned.graph(IA), Interned.graph(IB))) {
    Inter.emplace(Key, Counted<CanonId>{IB});
    return Interned.graph(IB);
  }
  if (certified(IA) && includes(Interned.graph(IB), Interned.graph(IA))) {
    Inter.emplace(Key, Counted<CanonId>{IA});
    return Interned.graph(IA);
  }
  CanonId R = Interned.intern(graphIntersect(Interned.graph(IA),
                                             Interned.graph(IB), Syms, Norm,
                                             &Scratch, &WScratch));
  Inter.emplace(Key, Counted<CanonId>{R});
  return Interned.graph(R);
}

TypeGraph OpCache::widenOf(const TypeGraph &Old, const TypeGraph &New,
                           const WideningOptions &Opts,
                           WideningStats *WStats) {
  GAIA_FAULT_POINT(OpCacheLookup);
  CanonId IO = Interned.intern(Old);
  CanonId IN = Interned.intern(New);
  if (IO == IN) { // X <= X, so X V X = X (the includes() fast path)
    ++St.Hits;
    if (WStats)
      ++WStats->Invocations;
    return Interned.graph(IO);
  }
  auto Key = std::make_pair(IO, IN); // widening is not commutative
  if (Shared) {
    auto It = Shared->Widen.find(Key);
    if (It != Shared->Widen.end()) {
      ++St.SharedHits;
      if (WStats)
        ++WStats->CacheHits;
      return Interned.graph(It->second);
    }
  }
  auto It = Widen.find(Key);
  if (It != Widen.end()) {
    ++St.Hits;
    ++It->second.Hits;
    if (WStats)
      ++WStats->CacheHits;
    return Interned.graph(It->second.Value);
  }
  ++St.Misses;
  // Inclusion fast path: graphWiden's first step returns Old when New
  // is already included; routing the check through the memoized
  // includes() lets repeated no-op widenings skip the uncached walk.
  // When it is refuted, the NotIncluded entry point skips graphWiden's
  // own entry check so the product walk is not repeated.
  if (includes(Interned.graph(IO), Interned.graph(IN))) {
    if (WStats)
      ++WStats->Invocations;
    Widen.emplace(Key, Counted<CanonId>{IO});
    return Interned.graph(IO);
  }
  CanonId R = Interned.intern(detail::graphWidenNotIncluded(
      Interned.graph(IO), Interned.graph(IN), Syms, Opts, WStats, &Scratch,
      &WScratch));
  Widen.emplace(Key, Counted<CanonId>{R});
  return Interned.graph(R);
}

bool OpCache::restrictOf(const TypeGraph &V, FunctorId Fn,
                         std::vector<TypeGraph> &ArgsOut) {
  GAIA_FAULT_POINT(OpCacheLookup);
  CanonId Id = Interned.intern(V);
  auto Key = std::make_pair(Id, static_cast<uint32_t>(Fn));
  auto Unpack = [&](const RestrictMemo &M) {
    ArgsOut.clear();
    for (CanonId A : M.Args)
      ArgsOut.push_back(Interned.graph(A));
    return M.Ok;
  };
  if (Shared) {
    auto It = Shared->Restrict.find(Key);
    if (It != Shared->Restrict.end()) {
      ++St.SharedHits;
      return Unpack(It->second);
    }
  }
  auto It = Restrict.find(Key);
  if (It != Restrict.end()) {
    ++St.Hits;
    ++It->second.Hits;
    return Unpack(It->second.Value);
  }
  ++St.Misses;
  Counted<RestrictMemo> R;
  R.Value.Ok = graphRestrict(Interned.graph(Id), Fn, Syms, Norm, ArgsOut,
                             &Scratch);
  for (const TypeGraph &A : ArgsOut)
    R.Value.Args.push_back(Interned.intern(A));
  // Hand back the canonical representatives: they carry their interner
  // caches, so downstream operations on these values intern in O(1).
  bool Ok = Unpack(R.Value);
  Restrict.emplace(Key, std::move(R));
  return Ok;
}

TypeGraph OpCache::constructOf(FunctorId Fn,
                               const std::vector<TypeGraph> &Args) {
  GAIA_FAULT_POINT(OpCacheLookup);
  std::vector<uint32_t> Key;
  Key.reserve(Args.size() + 1);
  Key.push_back(Fn);
  for (const TypeGraph &A : Args)
    Key.push_back(Interned.intern(A));
  if (Shared) {
    auto It = Shared->Construct.find(Key);
    if (It != Shared->Construct.end()) {
      ++St.SharedHits;
      return Interned.graph(It->second);
    }
  }
  auto It = Construct.find(Key);
  if (It != Construct.end()) {
    ++St.Hits;
    ++It->second.Hits;
    return Interned.graph(It->second.Value);
  }
  ++St.Misses;
  CanonId R =
      Interned.intern(graphConstruct(Fn, Args, Syms, Norm, &Scratch));
  Construct.emplace(std::move(Key), Counted<CanonId>{R});
  return Interned.graph(R);
}

std::shared_ptr<const FrozenOpTier> OpCache::freeze() const {
  FrozenOpTier::Builder B;

  // Pf pre-pass: make sure every pf-set a widening over a tier graph
  // could ask for — i.e. every or-vertex pf-set of every canonical
  // graph — is interned before the pf tier is frozen. (Interning is the
  // side effect; the topology caches built here on *private* canon
  // graphs are a bonus for the rest of this cache's lifetime.)
  for (CanonId Id = 0; Id != Interned.size(); ++Id)
    Interned.graph(Id).topology(Syms, WScratch.PfSets);
  B.Pf = WScratch.PfSets.freeze();

  // Unsealed: the topology priming below still writes the frozen graphs'
  // lazily-filled caches. Sealed right after, before any worker can see
  // the tier.
  B.Intern = Interned.freeze(/*SealStorage=*/false);
  // Prime every canonical graph's topology cache against the *frozen*
  // pf tier: the pre-pass guarantees every lookup hits the tier, so the
  // caches are tagged with the tier's epoch and are valid under every
  // worker interner layered over it — concurrent widenings never write.
  {
    PfSetInterner Primer(B.Pf);
    for (CanonId Id = 0; Id != B.Intern->size(); ++Id) {
      const TypeGraph &G = B.Intern->Canon[Id];
      G.topology(Syms, Primer);
      assert(Primer.honorsEpoch(G.topoCacheIfPresent()->PfEpoch) &&
             G.topoCacheIfPresent()->PfEpoch == B.Pf->Epoch &&
             "frozen graph topology must be tier-tagged");
    }
  }
  B.Intern->sealStorage();
  B.Norm = Norm;
  // Merge: the shared tier's results first, then the private delta. Keys
  // never conflict on semantics (both tiers record the same pure
  // function of the operand languages), so emplace's keep-first policy
  // is immaterial.
  if (Shared) {
    B.Incl.insert(Shared->Incl.begin(), Shared->Incl.end());
    B.Union.insert(Shared->Union.begin(), Shared->Union.end());
    B.Inter.insert(Shared->Inter.begin(), Shared->Inter.end());
    B.Widen.insert(Shared->Widen.begin(), Shared->Widen.end());
    B.Restrict.insert(Shared->Restrict.begin(), Shared->Restrict.end());
    B.Construct.insert(Shared->Construct.begin(), Shared->Construct.end());
  }
  // The per-entry heat counters stay behind: the tier stores plain
  // results (heat is a property of a delta, not of frozen entries).
  for (const auto &[K, V] : Incl)
    B.Incl.emplace(K, V.Value);
  for (const auto &[K, V] : Union)
    B.Union.emplace(K, V.Value);
  for (const auto &[K, V] : Inter)
    B.Inter.emplace(K, V.Value);
  for (const auto &[K, V] : Widen)
    B.Widen.emplace(K, V.Value);
  for (const auto &[K, V] : Restrict)
    B.Restrict.emplace(K, V.Value);
  for (const auto &[K, V] : Construct)
    B.Construct.emplace(K, V.Value);

  auto T = std::make_shared<const FrozenOpTier>(std::move(B));
  T->sealStorage();
  return T;
}

std::shared_ptr<const CacheDelta>
OpCache::harvestDelta(uint32_t MinHits) const {
  auto D = std::make_shared<CacheDelta>();
  auto G = [&](CanonId Id) -> const TypeGraph & {
    return Interned.graph(Id);
  };

  // Hot privately-interned languages: even without a hot operation
  // entry, promoting the language lets every job of the next batch
  // resolve it in the tier instead of minting a private id for it (a
  // graph copy into the delta) on first contact.
  for (uint32_t I = 0; I != Interned.deltaSize(); ++I)
    if (Interned.deltaHits(I) >= MinHits)
      D->Graphs.push_back(Interned.deltaGraph(I));

  for (const auto &[K, V] : Incl)
    if (V.Hits >= MinHits)
      D->Incl.push_back({G(K.first), G(K.second), V.Value != 0});
  for (const auto &[K, V] : Union)
    if (V.Hits >= MinHits)
      D->Union.push_back({G(K.first), G(K.second), G(V.Value)});
  for (const auto &[K, V] : Inter)
    if (V.Hits >= MinHits)
      D->Inter.push_back({G(K.first), G(K.second), G(V.Value)});
  for (const auto &[K, V] : Widen)
    if (V.Hits >= MinHits)
      D->Widen.push_back({G(K.first), G(K.second), G(V.Value)});
  for (const auto &[K, V] : Restrict)
    if (V.Hits >= MinHits) {
      CacheDelta::RestrictEntry E;
      E.V = G(K.first);
      E.Name = Syms.functorName(K.second);
      E.Arity = Syms.functorArity(K.second);
      E.Ok = V.Value.Ok;
      for (CanonId A : V.Value.Args)
        E.Args.push_back(G(A));
      D->Restrict.push_back(std::move(E));
    }
  for (const auto &[K, V] : Construct)
    if (V.Hits >= MinHits) {
      CacheDelta::ConstructEntry E;
      E.Name = Syms.functorName(K[0]);
      E.Arity = Syms.functorArity(K[0]);
      for (size_t I = 1; I != K.size(); ++I)
        E.Args.push_back(G(K[I]));
      E.R = G(V.Value);
      D->Construct.push_back(std::move(E));
    }

  if (D->entryCount() == 0)
    return nullptr;
  // Copied last: a cold harvest shouldn't pay for a table snapshot.
  D->Syms = Syms;
  return D;
}

uint64_t OpCache::absorbDelta(SymbolTable &TargetSyms, const CacheDelta &D) {
  assert(&TargetSyms == &Syms &&
         "absorb target must be the table this cache was built over");

  // Functor map: the delta's functor ids -> this table's, matched by
  // (name, arity); unknown functors are interned. Appending functors
  // never reorders existing names, so the name-rank sort order behind
  // canonical or-successor ordering is stable and already-normalized
  // graphs in this cache stay canonical.
  const uint32_t NumF = D.Syms.numFunctors();
  std::vector<FunctorId> FMap(NumF);
  bool Identity = true;
  for (uint32_t F = 0; F != NumF; ++F) {
    FMap[F] =
        TargetSyms.functor(D.Syms.functorName(F), D.Syms.functorArity(F));
    Identity = Identity && FMap[F] == F;
  }

  // Import one carried graph into this cache's id space. The identity
  // fast path passes the value straight to the interner (the common
  // case: promotion onto the tier the delta's job ran over, where the
  // job's table snapshot started from this very table). Otherwise the
  // functor ids are rewritten through the map and the graph is
  // re-normalized: the rewrite preserves the canonical shape (successor
  // sort order depends on functor *names*, which the map preserves)
  // but invalidates the certificate, and normalizeGraph re-earns it.
  auto Import = [&](const TypeGraph &In) {
    if (Identity)
      return In;
    TypeGraph C = In;
    for (NodeId V = 0; V != C.numNodes(); ++V)
      if (std::as_const(C).node(V).Kind == NodeKind::Func)
        C.node(V).Fn = FMap[std::as_const(C).node(V).Fn];
    return normalizeGraph(C, TargetSyms, Norm, &Scratch);
  };
  auto InternG = [&](const TypeGraph &In) {
    return Interned.intern(Import(In));
  };

  uint64_t Absorbed = 0;
  for (const TypeGraph &G : D.Graphs) {
    InternG(G);
    ++Absorbed;
  }
  for (const CacheDelta::InclEntry &E : D.Incl) {
    CanonId B = InternG(E.Big), S = InternG(E.Small);
    if (B == S)
      continue; // the same-id fast path answers this without a memo
    Absorbed += Incl
                    .emplace(std::make_pair(B, S),
                             Counted<uint8_t>{uint8_t(E.Result ? 1 : 0)})
                    .second;
  }
  for (const CacheDelta::PairEntry &E : D.Union) {
    CanonId A = InternG(E.A), B = InternG(E.B);
    Absorbed += Union
                    .emplace(std::make_pair(std::min(A, B), std::max(A, B)),
                             Counted<CanonId>{InternG(E.R)})
                    .second;
  }
  for (const CacheDelta::PairEntry &E : D.Inter) {
    CanonId A = InternG(E.A), B = InternG(E.B);
    Absorbed += Inter
                    .emplace(std::make_pair(std::min(A, B), std::max(A, B)),
                             Counted<CanonId>{InternG(E.R)})
                    .second;
  }
  for (const CacheDelta::PairEntry &E : D.Widen) {
    // Widening is not commutative: A is Old, B is New, key order as-is.
    CanonId A = InternG(E.A), B = InternG(E.B);
    Absorbed += Widen
                    .emplace(std::make_pair(A, B),
                             Counted<CanonId>{InternG(E.R)})
                    .second;
  }
  for (const CacheDelta::RestrictEntry &E : D.Restrict) {
    FunctorId Fn = TargetSyms.functor(E.Name, E.Arity);
    Counted<RestrictMemo> M;
    M.Value.Ok = E.Ok;
    for (const TypeGraph &A : E.Args)
      M.Value.Args.push_back(InternG(A));
    Absorbed +=
        Restrict
            .emplace(std::make_pair(InternG(E.V), static_cast<uint32_t>(Fn)),
                     std::move(M))
            .second;
  }
  for (const CacheDelta::ConstructEntry &E : D.Construct) {
    std::vector<uint32_t> Key;
    Key.reserve(E.Args.size() + 1);
    Key.push_back(TargetSyms.functor(E.Name, E.Arity));
    for (const TypeGraph &A : E.Args)
      Key.push_back(InternG(A));
    Absorbed +=
        Construct.emplace(std::move(Key), Counted<CanonId>{InternG(E.R)})
            .second;
  }
  return Absorbed;
}
