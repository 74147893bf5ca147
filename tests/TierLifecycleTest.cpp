//===- tests/TierLifecycleTest.cpp - Tier stacking contract tests ---------==//
///
/// \file
/// The cache-tier life of a long-running batch service: build and stack
/// (runtime/SharedCache.h). The load-bearing property throughout: every
/// tier configuration — none, fresh, stacked — serves bit-identical
/// analysis results, because cached entries are exact pure functions of
/// operand languages. The differential test below runs every Section 9
/// program against all three configurations and is gated in ctest; the
/// contract tests pin what a stacked build keeps of the tier below it.
///
//===----------------------------------------------------------------------===//

#include "runtime/AnalysisPool.h"

#include "core/Report.h"
#include "programs/Benchmarks.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

using namespace gaia;

namespace {

std::string fingerprint(const AnalysisResult &R) {
  return analysisFingerprint(R);
}

std::vector<AnalysisJob> section9Jobs() {
  std::vector<AnalysisJob> Jobs;
  for (const BenchmarkProgram &B : table123Suite())
    Jobs.push_back({B.Key, B.Source, B.GoalSpec});
  return Jobs;
}

/// A query variant the published-goal warmup never sees: its entries
/// reach a tier only when a build stacks it.
AnalysisJob variantJob(const char *Key, const char *Spec) {
  const BenchmarkProgram *B = findBenchmark(Key);
  std::string Goal = B->GoalSpec;
  size_t Pos = Goal.find("any");
  EXPECT_NE(Pos, std::string::npos);
  Goal.replace(Pos, 3, Spec);
  return {std::string(Key) + "#" + Spec, B->Source, Goal};
}

/// A program with functors no Section 9 program uses: stacking it
/// brings symbols the tier's table has never seen.
AnalysisJob churnJob(unsigned N) {
  std::string S = std::to_string(N);
  return {"churn#" + S,
          "p([]).\n"
          "p([soak_t" + S + "(X)|T]) :- q(X), p(T).\n"
          "q(soak_t" + S + "(a_" + S + ")).\n"
          "q(b_" + S + ").\n",
          "p(any)"};
}

AnalysisResult runOver(const AnalysisJob &J,
                       std::shared_ptr<const SharedCache> Tier) {
  AnalyzerOptions Opts;
  Opts.Shared = std::move(Tier);
  return analyzeProgram(J.Source, J.GoalSpec, Opts);
}

std::shared_ptr<const SharedCache> buildTier(
    const std::vector<AnalysisJob> &Warmup,
    std::shared_ptr<const SharedCache> Prev = nullptr,
    AnalyzerOptions Opts = {}) {
  Opts.Shared = std::move(Prev);
  std::string Err;
  std::shared_ptr<const SharedCache> T =
      SharedCache::build(Warmup, Opts, &Err);
  EXPECT_NE(T, nullptr) << Err;
  return T;
}

/// The acceptance differential: each Section 9 program, analyzed over
/// (a) no tier, (b) the warmed tier, (c) a tier stacked on a previous
/// tier — three bit-identical fingerprints.
TEST(TierLifecycleTest, FreshAndStackedAreBitIdentical) {
  std::vector<AnalysisJob> Jobs = section9Jobs();
  // (b) warm on every job, (c) warm on the first half and stack the
  // second half on top.
  std::vector<AnalysisJob> FirstHalf(Jobs.begin(),
                                     Jobs.begin() + Jobs.size() / 2);
  std::vector<AnalysisJob> SecondHalf(Jobs.begin() + Jobs.size() / 2,
                                      Jobs.end());
  std::shared_ptr<const SharedCache> Warmed = buildTier(Jobs);
  std::shared_ptr<const SharedCache> Stacked =
      buildTier(SecondHalf, buildTier(FirstHalf));

  for (const AnalysisJob &J : Jobs) {
    AnalysisResult Cold = analyzeProgram(J.Source, J.GoalSpec);
    ASSERT_TRUE(Cold.Ok) << J.Key;
    const std::string Want = fingerprint(Cold);
    EXPECT_EQ(Want, fingerprint(runOver(J, Warmed))) << J.Key << " warmed";
    EXPECT_EQ(Want, fingerprint(runOver(J, Stacked))) << J.Key << " stacked";
  }
}

TEST(TierLifecycleTest, StackingMakesAVariantsEntriesShared) {
  std::shared_ptr<const SharedCache> Tier = buildTier(section9Jobs());
  AnalysisJob Variant = variantJob("PG", "list");

  AnalysisResult Before = runOver(Variant, Tier);
  ASSERT_TRUE(Before.Ok);
  EXPECT_GT(Before.Stats.OpCacheMisses, 0u)
      << "the unwarmed variant must compute something fresh";

  std::shared_ptr<const SharedCache> Stacked = buildTier({Variant}, Tier);
  ASSERT_NE(Stacked, nullptr);
  AnalysisResult After = runOver(Variant, Stacked);
  ASSERT_TRUE(After.Ok);
  EXPECT_EQ(fingerprint(Before), fingerprint(After));
  EXPECT_GT(After.Stats.OpCacheSharedHits, Before.Stats.OpCacheSharedHits)
      << "stacked entries must resolve from the tier";
  EXPECT_EQ(After.Stats.OpCacheMisses, 0u)
      << "every operation the variant runs was computed by the stacked "
         "warmup";
}

/// What a build stacked over tier N keeps of N: every id below N's size
/// names a structurally equal canonical graph, every functor of N's
/// symbol snapshot keeps its name and arity, and N itself is unchanged.
TEST(TierLifecycleTest, StackedTierKeepsEveryIdAndSymbolOfTheTierBelow) {
  std::shared_ptr<const SharedCache> N = buildTier(section9Jobs());
  const SharedCache::BuildStats Before = N->stats();

  // New goals and new functors, so the stacked tier has to append.
  std::shared_ptr<const SharedCache> Next =
      buildTier({variantJob("QU", "list"), variantJob("PG", "list"),
                 churnJob(7)},
                N);
  ASSERT_NE(Next, nullptr);

  const FrozenInternTier &Below = *N->ops()->Intern;
  const FrozenInternTier &Above = *Next->ops()->Intern;
  ASSERT_GT(Above.size(), Below.size());
  for (CanonId Id = 0; Id != Below.size(); ++Id)
    ASSERT_TRUE(structuralEqual(Above.Canon[Id], Below.Canon[Id]))
        << "id " << Id << " changed its canonical graph";

  const SymbolTable &SymsBelow = N->symbols();
  const SymbolTable &SymsAbove = Next->symbols();
  ASSERT_GT(SymsAbove.numFunctors(), SymsBelow.numFunctors());
  for (FunctorId F = 0; F != SymsBelow.numFunctors(); ++F) {
    EXPECT_EQ(SymsAbove.functorName(F), SymsBelow.functorName(F)) << F;
    EXPECT_EQ(SymsAbove.functorArity(F), SymsBelow.functorArity(F)) << F;
  }

  // N was only read: its recorded figures and its live contents agree
  // with what they were before the build.
  const SharedCache::BuildStats &After = N->stats();
  EXPECT_EQ(After.WarmupJobs, Before.WarmupJobs);
  EXPECT_EQ(After.Graphs, Before.Graphs);
  EXPECT_EQ(After.OpResults, Before.OpResults);
  EXPECT_EQ(After.PfSets, Before.PfSets);
  EXPECT_EQ(After.Symbols, Before.Symbols);
  EXPECT_EQ(After.TierBytes, Before.TierBytes);
  EXPECT_EQ(Below.size(), Before.Graphs);
  EXPECT_EQ(N->ops()->resultCount(), Before.OpResults);
  EXPECT_EQ(N->ops()->Pf->size(), Before.PfSets);
  EXPECT_EQ(SymsBelow.numSymbols(), Before.Symbols);
}

/// Stacking over a tier of another configuration is no stacking at all:
/// the build ignores the tier and returns a fresh one.
TEST(TierLifecycleTest, StackingOverAnIncompatibleTierBuildsAFreshTier) {
  std::vector<AnalysisJob> Jobs = section9Jobs();
  std::shared_ptr<const SharedCache> Exact = buildTier(Jobs);
  AnalyzerOptions Capped;
  Capped.OrCap = 5;
  ASSERT_FALSE(Exact->compatibleWith(Capped));

  std::vector<AnalysisJob> Warmup(Jobs.begin(), Jobs.begin() + 3);
  std::shared_ptr<const SharedCache> Fresh =
      buildTier(Warmup, nullptr, Capped);
  std::shared_ptr<const SharedCache> OverExact =
      buildTier(Warmup, Exact, Capped);
  ASSERT_NE(Fresh, nullptr);
  ASSERT_NE(OverExact, nullptr);
  EXPECT_EQ(OverExact->stats().Graphs, Fresh->stats().Graphs);
  EXPECT_EQ(OverExact->stats().OpResults, Fresh->stats().OpResults);
  EXPECT_EQ(OverExact->symbols().numSymbols(),
            Fresh->symbols().numSymbols());
  EXPECT_TRUE(OverExact->compatibleWith(Capped));
}

/// Four batches, each served by a fresh pool over the current tier and
/// then stacked (churn job included) into the tier the next batch
/// reads: every job of every batch stays bit-identical to its cold run
/// while the tier grows underneath.
TEST(TierLifecycleTest, LifecycleRotatesTiersAcrossBatchesUnchanged) {
  std::vector<AnalysisJob> Jobs = section9Jobs();
  std::map<std::string, std::string> Oracle;
  for (const AnalysisJob &J : Jobs)
    Oracle[J.Key] = fingerprint(analyzeProgram(J.Source, J.GoalSpec));

  std::shared_ptr<const SharedCache> Tier = buildTier(Jobs);
  for (unsigned Gen = 0; Gen != 4; ++Gen) {
    std::vector<AnalysisJob> Batch = Jobs;
    Batch.push_back(churnJob(100 + Gen));
    std::string ChurnWant = fingerprint(
        analyzeProgram(Batch.back().Source, Batch.back().GoalSpec));

    PoolOptions PO;
    PO.Workers = 4;
    PO.Shared = Tier;
    AnalysisPool Pool(PO);
    std::vector<JobOutcome> Out = Pool.run(Batch);
    ASSERT_EQ(Out.size(), Batch.size());
    for (size_t I = 0; I != Jobs.size(); ++I)
      EXPECT_EQ(Oracle[Batch[I].Key], fingerprint(Out[I].Result))
          << Batch[I].Key << " at generation " << Gen;
    EXPECT_EQ(ChurnWant, fingerprint(Out.back().Result))
        << "churn at generation " << Gen;

    std::shared_ptr<const SharedCache> Next = buildTier(Batch, Tier);
    ASSERT_NE(Next, nullptr);
    EXPECT_GT(Next->stats().Graphs, Tier->stats().Graphs)
        << "each generation's churn is new to the tier";
    EXPECT_GT(Next->symbols().numFunctors(), Tier->symbols().numFunctors());
    Tier = std::move(Next);
  }
}

} // namespace
