//===- support/GraphInterner.h - Hash-consing of normalized type graphs ---==//
///
/// \file
/// Canonical ids for normalized type graphs. The GAIA fixpoint performs
/// thousands of graph operations whose operands repeat constantly (the
/// same list/tree grammars flow through every clause pass); giving every
/// *language* one dense canonical id makes
///
///   - semantic equality an integer comparison,
///   - the operation caches of typegraph/OpCache.h possible (keys are
///     canonical-id pairs), and
///   - memo-table lookup in the engine hashable (per-slot canonical ids).
///
/// Lookup is structural: a map over the BFS-canonical shape of the graph
/// (shared tier first, then the private buckets). `normalizeGraph`
/// unfolds the minimized deterministic automaton in a deterministic
/// order, so its output depends only on the language: a *certified*
/// graph (TypeGraph::isCertified — a normalization output or a certified
/// make* constructor) is the canonical shape of its language, and two
/// certified graphs are language-equal iff structurally equal. The
/// buckets are therefore a complete language index for every language
/// whose canonical shape has at most B = NormalizeOptions{}.MaxNodes
/// vertices, and a graph whose shape misses both bucket maps takes one
/// of three rules:
///
///   1. certified, at most B vertices: a new language — it takes the
///      next id, no automaton is built;
///   2. uncertified (hand-built spellings, depth-k truncations): it is
///      canonicalized by `normalizeGraph` under exact options (no or-cap
///      or depth bound, B vertices). If that output is certified and
///      fits B, its shape is looked up (tier first): a hit records the
///      input's shape as an alias of that id; a miss mints an id with the
///      input as representative and files the canonical shape under it;
///   3. anything else (a certified graph above B, an uncertified graph
///      whose canonical form does not fit B) is keyed on the serialized
///      minimal automaton (`buildAutomaton`), which is canonical for any
///      graph. No Section 9 program reaches this rule.
///
/// Together they keep the canonical-id invariant — equal language iff
/// equal id — with the same ids and representatives as keying every
/// graph on its automaton (tests/ReferenceInterner.h is that reference).
///
/// For the batch runtime the interner is *two-tier*: `freeze()` snapshots
/// a populated interner into an immutable FrozenInternTier whose lookups
/// are safe for unsynchronized concurrent reads (every stored graph has
/// its structural signature precomputed, so no lazy mutation happens at
/// read time). A fresh interner constructed over a frozen tier resolves
/// known languages to the tier's ids and allocates new (private) ids
/// from `tier size` upward, so ids never alias across tiers: the shared
/// tier owns the dense prefix [0, size), every delta id is >= size, and
/// the epoch tags cached inside graph values are drawn from one global
/// counter so a value can never smuggle an id between unrelated tiers.
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_SUPPORT_GRAPHINTERNER_H
#define GAIA_SUPPORT_GRAPHINTERNER_H

#include "support/FrozenArena.h"
#include "support/Hashing.h"
#include "typegraph/Normalize.h"
#include "typegraph/TypeGraph.h"

#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

namespace gaia {

/// Dense id of an interned graph language. Ids are only comparable within
/// one GraphInterner.
using CanonId = uint32_t;
constexpr CanonId InvalidCanon = ~0u;

/// Hash of the BFS-canonical shape of the reachable part of \p G: two
/// graphs that are structurally isomorphic under BFS renumbering (the
/// numbering `compact` produces) hash equal. On outputs of normalizeGraph
/// this is a *canonical* language hash. Memoized in the graph itself
/// (TypeGraph::structSig); mutation invalidates, copies inherit.
uint64_t structuralHash(const TypeGraph &G);

/// True if \p A and \p B have identical BFS-canonical shapes (same
/// renumbered vertex sequence, kinds, functors and successor lists).
bool structuralEqual(const TypeGraph &A, const TypeGraph &B);

/// Interning statistics (surfaced through EngineStats by the analyzer).
struct InternStats {
  uint64_t IdHits = 0;     ///< resolved by the graph's cached (epoch, id)
  uint64_t StructHits = 0; ///< resolved by the structural fast path
  /// New shape of a privately known language, alias recorded: an
  /// uncertified shape whose canonical form hit (rule 2), or a rule-3
  /// automaton-key hit.
  uint64_t AutoHits = 0;
  uint64_t Misses = 0;     ///< new language (representative stored)
  uint64_t SharedHits = 0; ///< resolved in the frozen shared tier
  /// Minimal automata built to key a graph (rule 3 of the file comment).
  uint64_t AutomatonKeys = 0;
};

/// An immutable snapshot of a populated GraphInterner: the read-only
/// shared tier of the batch runtime's two-tier cache. All lookups are
/// const and every stored graph carries a precomputed structural
/// signature and a (Epoch, id) intern cache, so concurrent readers never
/// race on the lazily-filled mutable fields of TypeGraph. Construct via
/// GraphInterner::freeze().
///
/// Freeze discipline (gaia-lint `freeze-fields` / `freeze-methods`):
/// every field is const and no mutating member function exists, so the
/// never-written-after-freeze contract is compiler-checked; freeze()
/// stages the contents in a Builder and moves them into place. In audit
/// builds (GAIA_AUDIT) the containers additionally live in a
/// FrozenArena that is mprotect(PROT_READ)-ed once the tier is complete,
/// so even a const_cast write faults.
struct FrozenInternTier {
  using BucketMap =
      FrozenMap<uint64_t, FrozenVector<std::pair<const TypeGraph *,
                                                 CanonId>>>;
  using AutoKeyMap =
      FrozenMap<std::vector<uint64_t>, CanonId, U64VectorHash>;

  /// Mutable staging area for freeze(): same shape as the tier, storage
  /// already drawn from the tier's arena in audit builds (so the final
  /// move re-homes nothing).
  struct Builder {
    Builder()
        : Arena(makeTierArena()),
          Canon(makeFrozenContainer<FrozenVector<TypeGraph>>(Arena)),
          Aliases(makeFrozenContainer<FrozenDeque<TypeGraph>>(Arena)),
          StructBuckets(makeFrozenContainer<BucketMap>(Arena)),
          AutoMap(makeFrozenContainer<AutoKeyMap>(Arena)) {}
    std::shared_ptr<FrozenArena> Arena;
    uint64_t Epoch = 0;
    FrozenVector<TypeGraph> Canon;
    FrozenDeque<TypeGraph> Aliases;
    BucketMap StructBuckets;
    AutoKeyMap AutoMap;
  };

  explicit FrozenInternTier(Builder &&B)
      : Arena(std::move(B.Arena)), Epoch(B.Epoch),
        Canon(std::move(B.Canon)), Aliases(std::move(B.Aliases)),
        StructBuckets(std::move(B.StructBuckets)),
        AutoMap(std::move(B.AutoMap)) {}

  /// Container teardown writes into the storage it releases, so the last
  /// reference lifts the audit seal before the members destruct.
  ~FrozenInternTier() {
    if (Arena)
      Arena->unseal();
  }

  /// Audit-build storage arena (null otherwise). Declared first: it must
  /// outlive the containers it backs.
  const std::shared_ptr<FrozenArena> Arena;
  /// Fresh process-unique epoch tag of this tier. Copies of the stored
  /// canonical graphs carry it, so any interner layered over this tier
  /// re-interns them with a tag compare.
  const uint64_t Epoch;
  /// Canonical representatives; the tier owns ids [0, Canon.size()).
  const FrozenVector<TypeGraph> Canon;
  /// Extra recorded shapes of known languages (deque: bucket entries
  /// hold pointers into it).
  const FrozenDeque<TypeGraph> Aliases;
  /// Shape hash -> (representative graph, id).
  const BucketMap StructBuckets;
  /// Serialized minimal automaton -> id, for the languages interned by
  /// rule 3 of the file comment (empty on the Section 9 programs).
  const AutoKeyMap AutoMap;

  uint32_t size() const { return static_cast<uint32_t>(Canon.size()); }

  /// Seals the arena (audit builds): every later write to tier storage
  /// faults. No-op without GAIA_AUDIT. Idempotent; const because it only
  /// flips page protection on storage the tier already cannot mutate.
  void sealStorage() const {
    if (Arena)
      Arena->seal();
  }
};

/// Assigns canonical ids to normalized type graphs. Not thread-safe; one
/// interner per analysis, sharing the analysis' SymbolTable. May be
/// layered over a FrozenInternTier (see file comment): the tier is only
/// read, so any number of concurrent interners can share one.
class GraphInterner {
public:
  explicit GraphInterner(const SymbolTable &Syms,
                         std::shared_ptr<const FrozenInternTier> Shared =
                             nullptr);

  /// Non-copyable/movable: StructBuckets holds pointers into the Canon
  /// and Aliases deques, which a copy or move would leave dangling.
  GraphInterner(const GraphInterner &) = delete;
  GraphInterner &operator=(const GraphInterner &) = delete;

  /// Interns \p G and returns its canonical id. Language-equal graphs
  /// receive equal ids. Certified graphs (normalization outputs, the
  /// certified make* constructors) resolve by shape alone; an uncertified
  /// one costs one exact normalization the first time its shape is seen
  /// (see the file comment). The resolved id is written back into the
  /// graph's intern cache (tagged with this interner's epoch, or with the
  /// shared tier's epoch when the language lives there — tier ids are
  /// valid under every interner sharing that tier), so re-interning the
  /// same value — every cached leaf operation interns its operands — is a
  /// tag compare.
  CanonId intern(const TypeGraph &G);

  /// The canonical representative of \p Id (the first graph interned with
  /// that language; for ids below the shared tier's size, the tier's
  /// graph). Stable for the interner's lifetime.
  const TypeGraph &graph(CanonId Id) const {
    return Id < Base ? Shared->Canon[Id] : Canon[Id - Base];
  }

  /// Number of distinct languages known (shared tier + private delta).
  uint32_t size() const {
    return Base + static_cast<uint32_t>(Canon.size());
  }
  /// Number of languages interned privately (beyond the shared tier).
  uint32_t deltaSize() const { return static_cast<uint32_t>(Canon.size()); }

  /// Snapshots this interner (shared tier included, ids preserved) into
  /// an immutable tier safe for unsynchronized concurrent lookups. By
  /// default the tier's audit-build storage is sealed before returning;
  /// OpCache::freeze() passes \p SealStorage = false so it can prime the
  /// frozen graphs' topology caches first, then seals via sealStorage().
  std::shared_ptr<const FrozenInternTier> freeze(bool SealStorage =
                                                     true) const;

  const FrozenInternTier *sharedTier() const { return Shared.get(); }

  const InternStats &stats() const { return St; }

private:
  const SymbolTable &Syms;
  /// Read-only shared tier (may be null). Owns ids [0, Base).
  std::shared_ptr<const FrozenInternTier> Shared;
  /// First private id: the shared tier's size.
  CanonId Base = 0;
  /// Private canonical representatives, indexed by CanonId - Base.
  /// Deque: stable references across growth.
  std::deque<TypeGraph> Canon;
  using Bucket = std::vector<std::pair<const TypeGraph *, CanonId>>;

  /// Assigns the next id to \p G's new language: stores \p G as its
  /// representative and files the shape in \p B (the bucket of \p G's
  /// shape hash).
  CanonId mint(const TypeGraph &G, Bucket &B);
  /// Records \p G's shape (bucket \p B) as an extra shape of language
  /// \p Id and caches the id on \p G under \p CacheEpoch.
  CanonId alias(const TypeGraph &G, Bucket &B, CanonId Id,
                uint64_t CacheEpoch);

  /// Alias storage for structurally novel graphs of known languages and
  /// the canonical shapes of uncertified representatives.
  std::deque<TypeGraph> Aliases;
  /// Structural lookup: shape hash -> (representative graph, id).
  std::unordered_map<uint64_t, Bucket> StructBuckets;
  /// Serialized minimal automaton -> id, for rule-3 languages only.
  std::unordered_map<std::vector<uint64_t>, CanonId, U64VectorHash> AutoMap;
  /// Distinguishes this interner's cached ids from those of any other
  /// interner a graph value may have met (one process hosts many
  /// analyses); drawn from a process-wide counter.
  uint64_t Epoch;
  /// Normalization scratch for canonicalizing uncertified graphs and
  /// building rule-3 automaton keys.
  NormalizeScratch Scratch;
  InternStats St;
};

} // namespace gaia

#endif // GAIA_SUPPORT_GRAPHINTERNER_H
