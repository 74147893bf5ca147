//===- tests/TierLifecycleTest.cpp - Tier promotion contract tests --------==//
///
/// \file
/// The cache-tier life of a long-running batch service: build, stack and
/// promote (runtime/SharedCache.h). The load-bearing property
/// throughout: every tier configuration — fresh, stacked, promoted —
/// serves bit-identical analysis results, because cached entries are
/// exact pure functions of operand languages. The differential test
/// below runs every Section 9 program against all three configurations
/// and is gated in ctest.
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
/// reach the tier only through the promotion path.
AnalysisJob variantJob(const char *Key, const char *Spec) {
  const BenchmarkProgram *B = findBenchmark(Key);
  std::string Goal = B->GoalSpec;
  size_t Pos = Goal.find("any");
  EXPECT_NE(Pos, std::string::npos);
  Goal.replace(Pos, 3, Spec);
  return {std::string(Key) + "#" + Spec, B->Source, Goal};
}

/// A program with functors no Section 9 program uses: its entries reach
/// the tier only by promotion, together with symbols the tier's table
/// has never seen.
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
                       std::shared_ptr<const SharedCache> Tier,
                       bool CollectDelta = false) {
  AnalyzerOptions Opts;
  Opts.Shared = std::move(Tier);
  Opts.CollectDelta = CollectDelta;
  Opts.DeltaMinHits = 0; // harvest the whole delta
  return analyzeProgram(J.Source, J.GoalSpec, Opts);
}

/// Promotes the deltas a batch harvested into the next tier; returns
/// \p Tier itself when no job harvested one.
std::shared_ptr<const SharedCache>
promoteBatch(const std::shared_ptr<const SharedCache> &Tier,
             const std::vector<JobOutcome> &Out) {
  std::vector<std::shared_ptr<const CacheDelta>> Deltas;
  for (const JobOutcome &O : Out)
    if (O.Result.Delta)
      Deltas.push_back(O.Result.Delta);
  return Deltas.empty() ? Tier : Tier->promoteAndRefreeze(Deltas);
}

std::shared_ptr<const SharedCache> buildTier(
    const std::vector<AnalysisJob> &Warmup,
    std::shared_ptr<const SharedCache> Prev = nullptr) {
  AnalyzerOptions Opts;
  Opts.Shared = std::move(Prev);
  std::string Err;
  std::shared_ptr<const SharedCache> T =
      SharedCache::build(Warmup, Opts, &Err);
  EXPECT_NE(T, nullptr) << Err;
  return T;
}

/// The acceptance differential: each Section 9 program, analyzed over
/// (a) no tier, (b) the warmed tier, (c) a tier stacked on a previous
/// tier, (d) a promotion refreeze — four bit-identical fingerprints.
TEST(TierLifecycleTest, FreshStackedPromotedAreBitIdentical) {
  std::vector<AnalysisJob> Jobs = section9Jobs();
  // (b) warm on the first half, (c) stack the second half on top.
  std::vector<AnalysisJob> FirstHalf(Jobs.begin(),
                                     Jobs.begin() + Jobs.size() / 2);
  std::vector<AnalysisJob> SecondHalf(Jobs.begin() + Jobs.size() / 2,
                                      Jobs.end());
  std::shared_ptr<const SharedCache> Warmed = buildTier(Jobs);
  std::shared_ptr<const SharedCache> Stacked =
      buildTier(SecondHalf, buildTier(FirstHalf));

  // (d) promote a variant job's harvested delta onto the warmed tier.
  AnalysisJob Variant = variantJob("QU", "list");
  AnalysisResult VarRun = runOver(Variant, Warmed, /*CollectDelta=*/true);
  ASSERT_TRUE(VarRun.Ok);
  ASSERT_NE(VarRun.Delta, nullptr)
      << "an unwarmed variant must leave a non-empty delta";
  std::shared_ptr<const SharedCache> Promoted =
      Warmed->promoteAndRefreeze({VarRun.Delta});
  EXPECT_GT(Promoted->stats().AbsorbedEntries, 0u);
  EXPECT_GE(Promoted->stats().Graphs, Warmed->stats().Graphs);

  for (const AnalysisJob &J : Jobs) {
    AnalysisResult Cold = analyzeProgram(J.Source, J.GoalSpec);
    ASSERT_TRUE(Cold.Ok) << J.Key;
    const std::string Want = fingerprint(Cold);
    EXPECT_EQ(Want, fingerprint(runOver(J, Warmed))) << J.Key << " warmed";
    EXPECT_EQ(Want, fingerprint(runOver(J, Stacked))) << J.Key << " stacked";
    EXPECT_EQ(Want, fingerprint(runOver(J, Promoted))) << J.Key << " promoted";
  }
}

TEST(TierLifecycleTest, PromotionMakesAVariantsEntriesShared) {
  std::shared_ptr<const SharedCache> Tier = buildTier(section9Jobs());
  AnalysisJob Variant = variantJob("PG", "list");

  AnalysisResult Before = runOver(Variant, Tier, /*CollectDelta=*/true);
  ASSERT_TRUE(Before.Ok);
  ASSERT_NE(Before.Delta, nullptr);
  EXPECT_GT(Before.Delta->entryCount(), 0u);
  EXPECT_GT(Before.Stats.OpCacheMisses, 0u)
      << "the unwarmed variant must compute something fresh";

  std::shared_ptr<const SharedCache> Promoted =
      Tier->promoteAndRefreeze({Before.Delta});
  AnalysisResult After = runOver(Variant, Promoted);
  ASSERT_TRUE(After.Ok);
  EXPECT_EQ(fingerprint(Before), fingerprint(After));
  EXPECT_GT(After.Stats.OpCacheSharedHits, Before.Stats.OpCacheSharedHits)
      << "promoted entries must resolve from the tier";
  EXPECT_LT(After.Stats.OpCacheMisses, Before.Stats.OpCacheMisses);

  // Null and repeated deltas are tolerated; absorbing the same delta
  // twice adds nothing the second time.
  std::shared_ptr<const SharedCache> Again =
      Promoted->promoteAndRefreeze({nullptr, Before.Delta});
  EXPECT_EQ(Again->stats().Graphs, Promoted->stats().Graphs);
}

/// Four batches on one pool, each promoting its harvested deltas into
/// the tier the next batch reads: every job of every batch stays
/// bit-identical to its cold run while the tier grows underneath.
TEST(TierLifecycleTest, LifecycleRotatesTiersAcrossBatchesUnchanged) {
  std::vector<AnalysisJob> Jobs = section9Jobs();
  std::map<std::string, std::string> Oracle;
  for (const AnalysisJob &J : Jobs)
    Oracle[J.Key] = fingerprint(analyzeProgram(J.Source, J.GoalSpec));

  std::shared_ptr<const SharedCache> Tier = buildTier(Jobs);
  PoolOptions PO;
  PO.Workers = 4;
  PO.Shared = Tier;
  PO.CollectDeltas = true;
  PO.DeltaMinHits = 0; // promote everything a job computes
  AnalysisPool Pool(PO);

  uint32_t Promotions = 0;
  uint64_t Absorbed = 0;
  for (unsigned Gen = 0; Gen != 4; ++Gen) {
    std::vector<AnalysisJob> Batch = Jobs;
    Batch.push_back(churnJob(100 + Gen));
    std::string ChurnWant = fingerprint(
        analyzeProgram(Batch.back().Source, Batch.back().GoalSpec));

    Pool.setShared(Tier);
    std::vector<JobOutcome> Out = Pool.run(Batch);
    ASSERT_EQ(Out.size(), Batch.size());
    for (size_t I = 0; I != Jobs.size(); ++I)
      EXPECT_EQ(Oracle[Batch[I].Key], fingerprint(Out[I].Result))
          << Batch[I].Key << " at generation " << Gen;
    EXPECT_EQ(ChurnWant, fingerprint(Out.back().Result))
        << "churn at generation " << Gen;

    std::shared_ptr<const SharedCache> Next = promoteBatch(Tier, Out);
    if (Next != Tier) {
      EXPECT_GE(Next->stats().Graphs, Tier->stats().Graphs)
          << "stacking keeps every id of the tier underneath";
      ++Promotions;
      Absorbed += Next->stats().AbsorbedEntries;
    }
    Tier = std::move(Next);
  }
  EXPECT_GT(Promotions, 0u);
  EXPECT_GT(Absorbed, 0u) << "each generation's churn is new to the tier";
}

} // namespace
