//===- typegraph/Normalize.h - Restore the cosmetic restrictions ----------==//
///
/// \file
/// Normalization re-establishes the paper's graph restrictions after a
/// product construction (union, intersection) or any other surgery:
///
///   1. *Determinize*: a subset construction over or-closures merges
///      same-functor alternatives, enforcing the Principal-Functor
///      restriction, Isolated-Any, and Int absorption of integer
///      literals. Unproductive (empty-denotation) states are pruned.
///   2. *Unfold*: the deterministic automaton is unfolded into a tree
///      whose only non-tree edges point back to or-vertices on the
///      current root path — exactly Flip-Flop + Or-Cycle + No-Sharing.
///
/// The or-degree cap of Section 9 ("the algorithms are then generalized
/// to replace an or-vertex with too many successors by an any-vertex")
/// is applied during determinization.
///
/// The pipeline is engineered to be allocation-light: the entry points
/// accept a caller-owned NormalizeScratch whose buffers (epoch-marked
/// visited sets, closure stacks, the partition-refinement tables of the
/// minimizer) are reused across calls instead of reallocated, and
/// results carry a normalization certificate (TypeGraph::markNormalized)
/// so re-normalizing an already-canonical graph is a copy.
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_TYPEGRAPH_NORMALIZE_H
#define GAIA_TYPEGRAPH_NORMALIZE_H

#include "support/Hashing.h"
#include "support/PairTable.h"
#include "typegraph/TypeGraph.h"

#include <unordered_map>

namespace gaia {

class CancelSignal; // support/Cancellation.h

/// Tuning knobs for normalization. OrCap = 0 means "unbounded" (the
/// paper's default configuration); 5 and 2 reproduce Table 3's capped
/// rows. MaxNodes is a defensive bound on unfolding: beyond it the
/// remaining structure collapses to Any (a sound over-approximation).
struct NormalizeOptions {
  uint32_t OrCap = 0;
  uint32_t MaxNodes = 100000;
  /// Depth bound (0 = unlimited): or-vertices deeper than this many
  /// or-levels collapse to Any. This is NOT used by the paper's system;
  /// it implements the classic depth-k abstraction used as the
  /// alternative-baseline widening in bench/widening_ablation (Section 7
  /// contrasts the paper's widening against finite-subdomain approaches
  /// of this kind).
  uint32_t MaxDepth = 0;
  /// Optional cooperative stop condition (support/Cancellation.h),
  /// polled inside the subset-construction worklist and the minimizer's
  /// refinement rounds. The engine's per-round checkpoints bound the
  /// fixpoint loops, but one normalization of a blown-up graph can burn
  /// an entire deadline between two such checkpoints — these are the
  /// inner poll points that close that gap. Not part of the
  /// normalization certificate: cancellation never changes a produced
  /// result, it only decides whether one is produced. The pointee must
  /// outlive every normalization run under these options (the analyzer
  /// arms it per job; warm-up and ad-hoc callers leave it null).
  const CancelSignal *Cancel = nullptr;
};

/// Reusable buffers for the normalization pipeline and the graph
/// operations built on it. One instance per analysis (owned by the
/// operation cache / leaf context); passing nullptr to the entry points
/// falls back to a thread-local instance, so ad-hoc callers (tests,
/// examples) stay allocation-correct without owning one. Not re-entrant
/// across threads; the epoch discipline makes it re-entrant across
/// sequential uses within one normalization (each traversal opens a
/// fresh epoch).
class NormalizeScratch {
public:
  /// Opens a new visited-epoch over \p NumNodes node ids and returns the
  /// epoch tag; `mark`/`marked` then cost one array access each.
  uint64_t beginEpoch(uint32_t NumNodes) {
    if (SeenMark.size() < NumNodes)
      SeenMark.resize(NumNodes, 0);
    return ++Epoch;
  }
  bool marked(NodeId V) const { return SeenMark[V] == Epoch; }
  void mark(NodeId V) { SeenMark[V] = Epoch; }

  /// DFS stack shared by the non-reentrant leaf traversals (or-closure
  /// expansion, constituent scans, subgraph copies).
  std::vector<NodeId> Stack;
  /// Closure-key assembly buffer (closureKey output before dedup-copy).
  std::vector<NodeId> KeyBuf;
  /// Minimizer: signature buffer and the two partition tables, reused so
  /// the bucket arrays survive across calls. Transparent (U64View)
  /// lookups: a state whose signature block already exists costs a probe,
  /// not a vector materialization.
  std::unordered_map<std::vector<uint64_t>, uint32_t, U64VectorHash,
                     U64VectorEq>
      Blocks;
  std::unordered_map<std::vector<uint64_t>, uint32_t, U64VectorHash,
                     U64VectorEq>
      NextBlocks;
  std::vector<uint64_t> SigBuf;
  /// Pair-state union (normalizeCertifiedPair): the state id of each
  /// (vertex of G1, vertex of G2) pair, and the pair of each state.
  PairTable PairIds;
  std::vector<std::pair<NodeId, NodeId>> StatePairs;

private:
  std::vector<uint64_t> SeenMark;
  uint64_t Epoch = 0;
};

/// Returns an equivalent (or minimally over-approximated, if a cap fires)
/// graph satisfying all restrictions, rooted at \p G's root. If \p G
/// carries a normalization certificate for \p Opts the call is a copy.
TypeGraph normalizeGraph(const TypeGraph &G, const SymbolTable &Syms,
                         const NormalizeOptions &Opts = {},
                         NormalizeScratch *Scratch = nullptr);

/// Normalizes the union of the denotations of \p Start inside \p G into a
/// fresh self-contained graph. This is the workhorse behind subgraph
/// extraction (leaf-domain restriction) and the replacement rule of the
/// widening operator.
TypeGraph normalizeFrom(const TypeGraph &G, const std::vector<NodeId> &Start,
                        const SymbolTable &Syms,
                        const NormalizeOptions &Opts = {},
                        NormalizeScratch *Scratch = nullptr);

/// Normalizes the union of the denotations of vertex \p V1 of \p G1 and
/// vertex \p V2 of \p G2 (InvalidNode stands for "no vertex"; at least
/// one must be given). Both graphs must carry a certificate for \p Opts
/// (TypeGraph::isNormalizedFor) and each given vertex must be an
/// or-vertex. A certified graph is deterministic and lists Any alone,
/// then Int and functors in functor-rank order, so the subset
/// construction's states are just pairs of or-vertices: they are built
/// from a pair table by merging the two sorted successor lists, with Any,
/// Int absorption and the or-cap applied exactly as the subset
/// construction applies them, and the rest of the pipeline (prune,
/// minimize, unfold, sort, compact) runs unchanged. The pair automaton
/// maps onto the subset construction's automaton state for state, so
/// both minimize to the same automaton and the result is the graph
/// normalizeFrom returns for the two vertices of the graphs copied side
/// by side.
TypeGraph normalizeCertifiedPair(const TypeGraph &G1, NodeId V1,
                                 const TypeGraph &G2, NodeId V2,
                                 const SymbolTable &Syms,
                                 const NormalizeOptions &Opts = {},
                                 NormalizeScratch *Scratch = nullptr);

/// The minimal deterministic automaton equivalent to a graph. Unlike the
/// graph itself (bound by No-Sharing), automaton states are shared, so
/// this is the natural structure for displaying results as tree grammars
/// the way the paper does.
struct GrammarAutomaton {
  struct State {
    bool IsAny = false;
    bool HasInt = false;
    std::vector<std::pair<FunctorId, std::vector<uint32_t>>> Trans;
  };
  std::vector<State> States; ///< only reachable, productive states
  uint32_t Root = 0;
  bool Empty = false; ///< graph denotes the empty set
};

/// Determinizes, prunes and minimizes \p G into its canonical automaton.
GrammarAutomaton buildAutomaton(const TypeGraph &G, const SymbolTable &Syms,
                                NormalizeScratch *Scratch = nullptr);

/// The "variant of the union operation which avoids creating or-vertices
/// which would lead to a growth in size" (Section 7.2.2), used by the
/// widening's replacement rule. Like normalizeFrom, but the subset
/// construction collapses a state into any ancestor state whose
/// constituent set covers it, over-approximating the union while tying
/// recursion into cycles. The result includes the denotations of all
/// \p Start vertices and is usually much smaller than the exact union.
TypeGraph collapsingUnionFrom(const TypeGraph &G,
                              const std::vector<NodeId> &Start,
                              const SymbolTable &Syms,
                              const NormalizeOptions &Opts = {},
                              NormalizeScratch *Scratch = nullptr);

} // namespace gaia

#endif // GAIA_TYPEGRAPH_NORMALIZE_H
