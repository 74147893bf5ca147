//===- domains/TypeLeaf.h - Type-graph leaf domain for Pat(R) -------------==//
///
/// \file
/// The R-domain of the paper's system Pat(Type): each leaf subterm of a
/// pattern carries a type graph. This adapter exposes the type-graph
/// operations in the shape the generic pattern domain expects.
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_DOMAINS_TYPELEAF_H
#define GAIA_DOMAINS_TYPELEAF_H

#include "typegraph/GraphOps.h"
#include "typegraph/OpCache.h"
#include "typegraph/Widening.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace gaia {

class SharedCache; // runtime/SharedCache.h

/// Leaf domain whose values are type graphs. All operations are pure;
/// the Context carries the symbol table, normalization knobs (or-degree
/// cap), widening statistics, and (optionally) the hash-consing
/// operation cache every op is routed through.
struct TypeLeaf {
  using Value = TypeGraph;

  /// Lazily built canonical leaf constants, shared by all copies of one
  /// Context. The stored instances are interned once (their intern cache
  /// rides along on every copy handed out), so the constant-returning
  /// accessors — called on every builtin refinement — cost a graph copy,
  /// not a re-normalization or a re-hash.
  struct Constants {
    TypeGraph Any = TypeGraph::makeAny();
    TypeGraph Int = TypeGraph::makeInt();
    TypeGraph Bottom = TypeGraph::makeBottom();
    std::optional<TypeGraph> AnyList;
  };

  struct Context {
    SymbolTable &Syms;
    NormalizeOptions Norm;
    WideningOptions Widen;
    WideningStats *WStats = nullptr;
    /// Optional memo layer (support/GraphInterner.h + typegraph/OpCache.h).
    /// When set, includes/meet/join/widen/restrictTo/construct hit the
    /// canonical-id caches and canonKey returns interner ids; when null
    /// every op recomputes (tests that probe the raw operations construct
    /// contexts this way).
    OpCache *Ops = nullptr;
    std::shared_ptr<Constants> Consts = std::make_shared<Constants>();
    /// Keep-alive anchor for the batch runtime's frozen shared cache
    /// tier (runtime/SharedCache.h). When the analyzer runs a job over a
    /// shared tier, Ops' frozen maps, the interner's frozen prefix and
    /// the pre-primed Consts all point into the SharedCache; holding the
    /// refcount here guarantees they outlive every value this context
    /// hands out, even if the service that ran the job drops its tier.
    std::shared_ptr<const SharedCache> Shared;
  };

  static Value any(const Context &Ctx) {
    return primed(Ctx, Ctx.Consts->Any);
  }
  static Value intValue(const Context &Ctx) {
    return primed(Ctx, Ctx.Consts->Int);
  }
  static Value listValue(const Context &Ctx) {
    if (!Ctx.Consts->AnyList)
      Ctx.Consts->AnyList = TypeGraph::makeAnyList(Ctx.Syms);
    return primed(Ctx, *Ctx.Consts->AnyList);
  }
  static Value bottom(const Context &Ctx) {
    return primed(Ctx, Ctx.Consts->Bottom);
  }

  static bool isBottom(const Context &, const Value &V) {
    return V.isBottomGraph();
  }
  static bool isAny(const Context &Ctx, const Value &V) {
    return includes(Ctx, V, any(Ctx));
  }

  static bool includes(const Context &Ctx, const Value &Big,
                       const Value &Small) {
    if (Ctx.Ops)
      return Ctx.Ops->includes(Big, Small);
    return graphIncludes(Big, Small, Ctx.Syms);
  }
  static Value meet(const Context &Ctx, const Value &A, const Value &B) {
    if (Ctx.Ops)
      return Ctx.Ops->intersectOf(A, B);
    return graphIntersect(A, B, Ctx.Syms, Ctx.Norm);
  }
  static Value join(const Context &Ctx, const Value &A, const Value &B) {
    if (Ctx.Ops)
      return Ctx.Ops->unionOf(A, B);
    return graphUnion(A, B, Ctx.Syms, Ctx.Norm);
  }
  static Value widen(const Context &Ctx, const Value &Old,
                     const Value &New) {
    WideningOptions Opts = Ctx.Widen;
    Opts.Norm = Ctx.Norm;
    if (Ctx.Ops)
      return Ctx.Ops->widenOf(Old, New, Opts, Ctx.WStats);
    return graphWiden(Old, New, Ctx.Syms, Opts, Ctx.WStats);
  }

  /// Canonical key for memo-table hashing: equal values (language
  /// equality) map to equal keys. With the op cache this is the interned
  /// canonical id; otherwise the BFS-structural hash, which is canonical
  /// on normalized values (every Value the engine manipulates is one).
  static uint64_t canonKey(const Context &Ctx, const Value &V) {
    if (Ctx.Ops)
      return Ctx.Ops->canonId(V);
    return structuralHash(V);
  }

  /// Restricts \p V to terms with principal functor \p Fn. Returns false
  /// if no such terms exist (abstract unification fails); otherwise
  /// fills \p ArgsOut with one value per argument.
  static bool restrictTo(const Context &Ctx, const Value &V, FunctorId Fn,
                         std::vector<Value> &ArgsOut) {
    if (Ctx.Ops)
      return Ctx.Ops->restrictOf(V, Fn, ArgsOut);
    return graphRestrict(V, Fn, Ctx.Syms, Ctx.Norm, ArgsOut);
  }

  /// Builds the value f(a1, ..., an) from argument values.
  static Value construct(const Context &Ctx, FunctorId Fn,
                         const std::vector<Value> &Args) {
    if (Ctx.Ops)
      return Ctx.Ops->constructOf(Fn, Args);
    return graphConstruct(Fn, Args, Ctx.Syms, Ctx.Norm);
  }

  /// The type graph describing the value (identity here; the PF leaf
  /// returns Any). Lets clients extract graphs uniformly.
  static TypeGraph toGraph(const Context &, const Value &V) { return V; }

  static std::string print(const Context &Ctx, const Value &V);

private:
  /// Returns a copy of the shared constant, priming its intern cache on
  /// first use so every copy interns in O(1).
  static Value primed(const Context &Ctx, const TypeGraph &G) {
    if (Ctx.Ops)
      Ctx.Ops->canonId(G);
    return G;
  }
};

} // namespace gaia

#endif // GAIA_DOMAINS_TYPELEAF_H
