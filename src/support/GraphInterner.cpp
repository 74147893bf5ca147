//===- support/GraphInterner.cpp -------------------------------------------=//

#include "support/GraphInterner.h"

#include "support/FaultInject.h"
#include "typegraph/Normalize.h"

#include <atomic>

using namespace gaia;

uint64_t gaia::structuralHash(const TypeGraph &G) {
  if (G.structSigValid())
    return G.structSig();
  uint64_t Result;
  if (G.root() == InvalidNode) {
    Result = 0x1507;
  } else {
    // Single-pass BFS with reused thread-local buffers: this runs on
    // every interner miss, so it must not allocate per call.
    static thread_local std::vector<uint32_t> Remap;
    static thread_local std::vector<NodeId> Order;
    Remap.assign(G.numNodes(), ~0u);
    Order.clear();
    Order.push_back(G.root());
    Remap[G.root()] = 0;
    for (size_t Head = 0; Head != Order.size(); ++Head)
      for (NodeId S : G.node(Order[Head]).Succs)
        if (Remap[S] == ~0u) {
          Remap[S] = static_cast<uint32_t>(Order.size());
          Order.push_back(S);
        }
    std::size_t Seed = Order.size();
    for (NodeId V : Order) {
      const TGNode &N = G.node(V);
      hashCombine(Seed, static_cast<std::size_t>(N.Kind));
      if (N.Kind == NodeKind::Func)
        hashCombine(Seed, N.Fn);
      hashCombine(Seed, N.Succs.size());
      for (NodeId S : N.Succs)
        hashCombine(Seed, Remap[S]);
    }
    Result = Seed;
  }
  G.setStructSig(Result);
  return Result;
}

bool gaia::structuralEqual(const TypeGraph &A, const TypeGraph &B) {
  if ((A.root() == InvalidNode) != (B.root() == InvalidNode))
    return false;
  if (A.root() == InvalidNode)
    return true;
  // Lock-step BFS over both graphs: the pair of traversals assigns the
  // same canonical number to corresponding vertices and fails fast at
  // the first divergence (kind, functor, successor count, or successor
  // numbering). Equivalent to comparing the two BFS-renumbered graphs,
  // without materializing either topology.
  static thread_local std::vector<uint32_t> RemapA, RemapB;
  static thread_local std::vector<NodeId> OrderA, OrderB;
  RemapA.assign(A.numNodes(), ~0u);
  RemapB.assign(B.numNodes(), ~0u);
  OrderA.clear();
  OrderB.clear();
  OrderA.push_back(A.root());
  OrderB.push_back(B.root());
  RemapA[A.root()] = 0;
  RemapB[B.root()] = 0;
  for (size_t Head = 0; Head != OrderA.size(); ++Head) {
    const TGNode &NA = A.node(OrderA[Head]);
    const TGNode &NB = B.node(OrderB[Head]);
    if (NA.Kind != NB.Kind || NA.Succs.size() != NB.Succs.size())
      return false;
    if (NA.Kind == NodeKind::Func && NA.Fn != NB.Fn)
      return false;
    for (size_t J = 0; J != NA.Succs.size(); ++J) {
      NodeId SA = NA.Succs[J], SB = NB.Succs[J];
      uint32_t MA = RemapA[SA], MB = RemapB[SB];
      if (MA != MB)
        return false;
      if (MA == ~0u) {
        RemapA[SA] = RemapB[SB] = static_cast<uint32_t>(OrderA.size());
        OrderA.push_back(SA);
        OrderB.push_back(SB);
      }
    }
  }
  return true;
}

namespace {

/// Process-wide epoch source for interner identity tags. Epoch 0 is the
/// "never interned" state of a fresh graph, so the counter starts at 1.
/// Atomic: individual interners are single-threaded, but interners for
/// independent analyses may be constructed concurrently, and a duplicated
/// epoch would let a graph smuggle a cached id across interners.
uint64_t nextInternerEpoch() {
  static std::atomic<uint64_t> Counter{0};
  return Counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Serializes the canonical minimal automaton of \p G into a flat word
/// sequence. buildAutomaton numbers states deterministically from the
/// structure alone, so the serialization is a canonical language key.
std::vector<uint64_t> automatonKey(const TypeGraph &G,
                                   const SymbolTable &Syms,
                                   NormalizeScratch &Scratch) {
  GrammarAutomaton A = buildAutomaton(G, Syms, &Scratch);
  std::vector<uint64_t> Key;
  if (A.Empty) {
    Key.push_back(0xE0);
    return Key;
  }
  Key.push_back(A.States.size());
  for (const GrammarAutomaton::State &S : A.States) {
    Key.push_back((S.IsAny ? 2 : 0) | (S.HasInt ? 1 : 0));
    Key.push_back(S.Trans.size());
    for (const auto &[Fn, Args] : S.Trans) {
      Key.push_back(Fn);
      for (uint32_t Arg : Args)
        Key.push_back(Arg);
    }
  }
  return Key;
}

/// The language index bound B (support/GraphInterner.h): canonical
/// shapes up to this many vertices are recorded in the structural
/// buckets. Default-constructed options are the exact canonicalization
/// options: no or-cap, no depth bound, B vertices.
constexpr uint32_t IndexBound = NormalizeOptions{}.MaxNodes;

/// The id of the language whose recorded shape in \p Bucket is
/// structurally equal to \p G, or InvalidCanon.
template <typename BucketT>
CanonId findShape(const BucketT &Bucket, const TypeGraph &G) {
  for (const auto &[Rep, Id] : Bucket)
    if (structuralEqual(*Rep, G))
      return Id;
  return InvalidCanon;
}

/// Same, looking up \p G's bucket (shape hash \p H) in \p Buckets.
template <typename BucketMapT>
CanonId findShape(const BucketMapT &Buckets, uint64_t H, const TypeGraph &G) {
  auto It = Buckets.find(H);
  return It == Buckets.end() ? InvalidCanon : findShape(It->second, G);
}

} // namespace

GraphInterner::GraphInterner(const SymbolTable &Syms,
                             std::shared_ptr<const FrozenInternTier> Tier)
    : Syms(Syms), Shared(std::move(Tier)),
      Base(Shared ? Shared->size() : 0), Epoch(nextInternerEpoch()) {}

CanonId GraphInterner::mint(const TypeGraph &G, Bucket &B) {
  ++St.Misses;
  CanonId Id = Base + static_cast<CanonId>(Canon.size());
  Canon.push_back(G);
  Canon.back().setInternCache(Epoch, Id);
  B.emplace_back(&Canon.back(), Id);
  G.setInternCache(Epoch, Id);
  return Id;
}

CanonId GraphInterner::alias(const TypeGraph &G, Bucket &B, CanonId Id,
                             uint64_t CacheEpoch) {
  Aliases.push_back(G);
  B.emplace_back(&Aliases.back(), Id);
  G.setInternCache(CacheEpoch, Id);
  return Id;
}

CanonId GraphInterner::intern(const TypeGraph &G) {
  // O(1) path: this exact value object (or a copy of one) has been
  // through this interner — or through the shared tier, whose ids form
  // the dense prefix of this interner's id space and are therefore valid
  // here as-is.
  if (G.internEpoch() == Epoch) {
    ++St.IdHits;
    return G.internId();
  }
  if (Shared && G.internEpoch() == Shared->Epoch) {
    ++St.SharedHits;
    return G.internId();
  }

  // Chaos probe after the O(1) epoch fast paths: only slow-path interns
  // (the ones that hash, compare, and may copy into the delta) can
  // fault, mirroring where a real interner defect would live.
  GAIA_FAULT_POINT(Intern);

  uint64_t H = structuralHash(G);

  // Frozen shared tier: lookups only, never mutated (concurrent workers
  // read it unsynchronized). A hit is cached on the *value* under the
  // tier's epoch, so copies keep resolving against any interner layered
  // over the same tier.
  if (Shared)
    if (CanonId Id = findShape(Shared->StructBuckets, H, G);
        Id != InvalidCanon) {
      ++St.SharedHits;
      G.setInternCache(Shared->Epoch, Id);
      return Id;
    }

  Bucket &B = StructBuckets[H];
  if (CanonId Id = findShape(B, G); Id != InvalidCanon) {
    ++St.StructHits;
    G.setInternCache(Epoch, Id);
    return Id;
  }

  // Rule 1: every language whose canonical shape fits the bound has
  // that shape in the buckets, so a certified shape that missed them
  // all is a new language.
  if (G.isCertified() && G.numNodes() <= IndexBound) {
#ifndef NDEBUG
    // Certificate audit: the rule is exact only if a certified graph is
    // its language's canonical shape. Re-normalizing an uncertified twin
    // (compact() drops the certificate) must reproduce it.
    TypeGraph Twin = normalizeGraph(G.compact(), Syms, NormalizeOptions{},
                                    &Scratch);
    assert(structuralEqual(Twin, G) &&
           "certified graph is not the canonical shape of its language");
#endif
    return mint(G, B);
  }

  // Rule 2: canonicalize an uncertified spelling and look its language
  // up by the canonical shape, tier first.
  if (!G.isCertified()) {
    TypeGraph C = normalizeGraph(G, Syms, NormalizeOptions{}, &Scratch);
    if (C.isCertified() && C.numNodes() <= IndexBound) {
      uint64_t HC = structuralHash(C);
      if (Shared)
        if (CanonId Id = findShape(Shared->StructBuckets, HC, C);
            Id != InvalidCanon) {
          // New shape of a language the shared tier knows: record the
          // shape privately so the next structural lookup short-circuits.
          ++St.SharedHits;
          return alias(G, B, Id, Shared->Epoch);
        }
      if (CanonId Id = findShape(StructBuckets, HC, C); Id != InvalidCanon) {
        ++St.AutoHits;
        return alias(G, B, Id, Epoch);
      }
      // New language: the input stays its representative, and the
      // canonical shape is filed too, keeping the index complete.
      CanonId Id = mint(G, B);
      if (HC != H || !structuralEqual(C, G)) {
        Aliases.push_back(std::move(C));
        StructBuckets[HC].emplace_back(&Aliases.back(), Id);
      }
      return Id;
    }
  }

  // Rule 3: a language whose canonical shape exceeds the bound is keyed
  // on its minimal automaton.
  ++St.AutomatonKeys;
  std::vector<uint64_t> AKey = automatonKey(G, Syms, Scratch);
  if (Shared)
    if (auto It = Shared->AutoMap.find(AKey); It != Shared->AutoMap.end()) {
      ++St.SharedHits;
      return alias(G, B, It->second, Shared->Epoch);
    }
  if (auto It = AutoMap.find(AKey); It != AutoMap.end()) {
    ++St.AutoHits;
    return alias(G, B, It->second, Epoch);
  }
  CanonId Id = mint(G, B);
  AutoMap.emplace(std::move(AKey), Id);
  return Id;
}

std::shared_ptr<const FrozenInternTier>
GraphInterner::freeze(bool SealStorage) const {
  FrozenInternTier::Builder B;
  B.Epoch = nextInternerEpoch();

  // Canonical graphs: the shared tier's prefix plus this interner's
  // private delta. Stacking preserves every id — the delta's ids already
  // start at the tier's size — so ids carry over as they are. Fill the
  // vector completely before taking pointers into it for the buckets
  // (the final move into the tier steals the buffer, so the pointers
  // stay valid).
  B.Canon.reserve(size());
  if (Shared)
    B.Canon.insert(B.Canon.end(), Shared->Canon.begin(),
                   Shared->Canon.end());
  B.Canon.insert(B.Canon.end(), Canon.begin(), Canon.end());
  for (CanonId Id = 0; Id != static_cast<CanonId>(B.Canon.size()); ++Id) {
    // Precompute the lazily-filled mutable caches now, so tier lookups
    // are pure reads: concurrent workers must never write into these
    // graphs.
    structuralHash(B.Canon[Id]);
    B.Canon[Id].setInternCache(B.Epoch, Id);
  }

  // Re-home the structural buckets: canonical representatives point at
  // the new Canon storage, recorded aliases are copied over.
  auto AddBuckets = [&](const auto &Buckets, auto IsCanonical) {
    for (const auto &[Hash, Entries] : Buckets)
      for (const auto &[Rep, Id] : Entries) {
        if (IsCanonical(Rep, Id)) {
          B.StructBuckets[Hash].emplace_back(&B.Canon[Id], Id);
        } else {
          B.Aliases.push_back(*Rep);
          structuralHash(B.Aliases.back());
          B.StructBuckets[Hash].emplace_back(&B.Aliases.back(), Id);
        }
      }
  };
  if (Shared)
    AddBuckets(Shared->StructBuckets, [&](const TypeGraph *Rep, CanonId Id) {
      return Rep == &Shared->Canon[Id];
    });
  AddBuckets(StructBuckets, [&](const TypeGraph *Rep, CanonId Id) {
    return Id >= Base && Rep == &graph(Id);
  });

  if (Shared)
    B.AutoMap.insert(Shared->AutoMap.begin(), Shared->AutoMap.end());
  B.AutoMap.insert(AutoMap.begin(), AutoMap.end());

  auto T = std::make_shared<const FrozenInternTier>(std::move(B));
  if (SealStorage)
    T->sealStorage();
  return T;
}
