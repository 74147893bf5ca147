//===- tests/BenchmarkSuiteTest.cpp - Section 9 benchmark smoke tests -----==//
///
/// \file
/// Integration tests over the ten medium-sized benchmarks: every program
/// parses, normalizes, analyzes to a non-bottom result under both
/// domains, produces sane metrics, and the type analysis never loses to
/// the principal-functor baseline (Section 9: "The type analysis
/// described here is always more precise than the pattern domain").
/// Every graph these programs intern resolves by shape: the interner
/// never falls back to building a minimal automaton.
///
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "core/InputPattern.h"
#include "core/Report.h"
#include "programs/Benchmarks.h"
#include "programs/PaperData.h"

#include <gtest/gtest.h>

#include <set>

using namespace gaia;

namespace {

AnalyzerOptions optionsFor(const std::string &Key, DomainKind Domain) {
  AnalyzerOptions Opts;
  Opts.Domain = Domain;
  // PR's polyvariance explosion (the pathology Section 9 discusses for
  // RE) is trimmed harder in unit tests to keep them fast.
  if (Key == "PR")
    Opts.MaxInputPatterns = 2;
  return Opts;
}

class BenchmarkSuiteTest : public ::testing::TestWithParam<const char *> {};

TEST_P(BenchmarkSuiteTest, TypeAnalysisSucceeds) {
  const BenchmarkProgram *B = findBenchmark(GetParam());
  ASSERT_NE(B, nullptr);
  AnalysisResult R = analyzeProgram(
      B->Source, B->GoalSpec, optionsFor(B->Key, DomainKind::TypeGraphs));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.QuerySucceeds) << B->Key << " bottomed out";
  EXPECT_TRUE(R.UnknownPredicates.empty())
      << B->Key << " calls undefined predicates";
  EXPECT_GT(R.Stats.ProcedureIterations, 0u);
  EXPECT_GE(R.Stats.ClauseIterations, R.Stats.ProcedureIterations);
}

TEST_P(BenchmarkSuiteTest, PrincipalFunctorBaselineSucceeds) {
  const BenchmarkProgram *B = findBenchmark(GetParam());
  ASSERT_NE(B, nullptr);
  AnalysisResult R = analyzeProgram(
      B->Source, B->GoalSpec,
      optionsFor(B->Key, DomainKind::PrincipalFunctors));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.QuerySucceeds) << B->Key;
}

TEST_P(BenchmarkSuiteTest, MetricsAreSane) {
  const BenchmarkProgram *B = findBenchmark(GetParam());
  ASSERT_NE(B, nullptr);
  AnalysisResult R = analyzeProgram(
      B->Source, B->GoalSpec, optionsFor(B->Key, DomainKind::TypeGraphs));
  ASSERT_TRUE(R.Ok);
  EXPECT_GT(R.Sizes.NumProcedures, 0u);
  EXPECT_GE(R.Sizes.NumClauses, R.Sizes.NumProcedures);
  EXPECT_GT(R.Sizes.NumProgramPoints, R.Sizes.NumClauses);
  EXPECT_GT(R.Sizes.NumGoals, 0u);
  EXPECT_GT(R.Sizes.StaticCallTreeSize, 0u);
  uint32_t Classified = R.Recursion.TailRecursive +
                        R.Recursion.LocallyRecursive +
                        R.Recursion.MutuallyRecursive +
                        R.Recursion.NonRecursive;
  EXPECT_EQ(Classified, R.Sizes.NumProcedures);
}

TEST_P(BenchmarkSuiteTest, TypeTagsNeverLoseToBaseline) {
  const BenchmarkProgram *B = findBenchmark(GetParam());
  ASSERT_NE(B, nullptr);
  AnalysisResult Ty = analyzeProgram(
      B->Source, B->GoalSpec, optionsFor(B->Key, DomainKind::TypeGraphs));
  AnalysisResult PF = analyzeProgram(
      B->Source, B->GoalSpec,
      optionsFor(B->Key, DomainKind::PrincipalFunctors));
  ASSERT_TRUE(Ty.Ok);
  ASSERT_TRUE(PF.Ok);
  for (bool Output : {true, false}) {
    TagTally T = computeTagTally(Ty, PF, Output);
    EXPECT_EQ(T.Type[0] /*None*/ <= T.PF[0], true)
        << B->Key << ": type analysis produced fewer tags than PF";
    // Improvement ratios are well defined.
    EXPECT_LE(T.AI, T.A);
    EXPECT_LE(T.CI, T.C);
  }
}

/// Analyzes \p B uncapped and under or-caps 5 and 2 (all other options
/// default) and requires that no intern needed an automaton key.
void expectNoAutomatonKeys(const BenchmarkProgram &B) {
  for (uint32_t OrCap : {0u, 5u, 2u}) {
    AnalyzerOptions Opts;
    Opts.OrCap = OrCap;
    AnalysisResult R = analyzeProgram(B.Source, B.GoalSpec, Opts);
    ASSERT_TRUE(R.Ok) << B.Key << ": " << R.Error;
    EXPECT_GT(R.Stats.InternedGraphs, 0u) << B.Key;
    EXPECT_EQ(R.Stats.InternAutomatonKeys, 0u)
        << B.Key << " at or-cap " << OrCap;
  }
}

TEST_P(BenchmarkSuiteTest, InternerBuildsNoAutomatonKeys) {
  const BenchmarkProgram *B = findBenchmark(GetParam());
  ASSERT_NE(B, nullptr);
  expectNoAutomatonKeys(*B);
}

TEST(Section2ExamplesTest, InternerBuildsNoAutomatonKeys) {
  for (const BenchmarkProgram &B : section2Examples())
    expectNoAutomatonKeys(B);
}

INSTANTIATE_TEST_SUITE_P(Programs, BenchmarkSuiteTest,
                         ::testing::Values("KA", "QU", "PR", "PE", "CS",
                                           "DS", "PG", "RE", "BR", "PL"),
                         [](const auto &Info) {
                           return std::string(Info.param);
                         });

TEST(BenchmarkRegistryTest, SuiteRowOrderMatchesTables45) {
  const std::vector<BenchmarkProgram> &Suite = benchmarkSuite();
  ASSERT_EQ(Suite.size(), 15u);
  const char *Expected[] = {"AR", "AR1", "CS", "DS", "BR", "KA", "LDS",
                            "LPE", "LPL", "PE", "PG", "PL", "PR", "QU",
                            "RE"};
  for (size_t I = 0; I != Suite.size(); ++I)
    EXPECT_EQ(Suite[I].Key, Expected[I]);
}

TEST(BenchmarkRegistryTest, PaperDataCoversAllRows) {
  for (const BenchmarkProgram &B : benchmarkSuite()) {
    EXPECT_NE(paperTable4(B.Key), nullptr) << B.Key;
    EXPECT_NE(paperTable5(B.Key), nullptr) << B.Key;
  }
  for (const BenchmarkProgram &B : table123Suite()) {
    EXPECT_NE(paperTable1(B.Key), nullptr) << B.Key;
    EXPECT_NE(paperTable2(B.Key), nullptr) << B.Key;
    EXPECT_NE(paperTable3(B.Key), nullptr) << B.Key;
  }
}

TEST(BenchmarkRegistryTest, LVariantsShareSources) {
  const BenchmarkProgram *DS = findBenchmark("DS");
  const BenchmarkProgram *LDS = findBenchmark("LDS");
  ASSERT_NE(DS, nullptr);
  ASSERT_NE(LDS, nullptr);
  EXPECT_EQ(DS->Source, LDS->Source);
  EXPECT_NE(DS->GoalSpec, LDS->GoalSpec);
}

TEST(BenchmarkRegistryTest, LVariantsAnalyze) {
  for (const char *Key : {"LDS", "LPL"}) {
    const BenchmarkProgram *B = findBenchmark(Key);
    ASSERT_NE(B, nullptr);
    AnalysisResult R = analyzeProgram(B->Source, B->GoalSpec);
    EXPECT_TRUE(R.Ok) << R.Error;
    EXPECT_TRUE(R.QuerySucceeds) << Key;
  }
}

TEST(BenchmarkRegistryTest, FindBenchmarkUnknownKey) {
  EXPECT_EQ(findBenchmark("NOPE"), nullptr);
}

// Registry integrity: every registered program is well-formed and
// resolvable. Guards against a key typo or an empty reconstruction
// silently poisoning the suite.
TEST(BenchmarkRegistryTest, KeysUniqueAndNonEmpty) {
  // benchmarkSuite deliberately reuses entries from the other two
  // registries (AR/AR1 and the Table 1/2/3 programs); a key shared
  // across suites is only legitimate for such a reused entry, where it
  // names the same program. Derive the expected overlap from the data
  // so registry growth doesn't invalidate the check.
  std::set<std::string> Seen;
  size_t Total = 0, Reused = 0;
  auto SameProgramElsewhere = [](const BenchmarkProgram &B) {
    for (const std::vector<BenchmarkProgram> *Suite :
         {&section2Examples(), &table123Suite()})
      for (const BenchmarkProgram &P : *Suite)
        if (P.Key == B.Key) {
          EXPECT_EQ(P.Source, B.Source) << B.Key;
          return true;
        }
    return false;
  };
  for (const std::vector<BenchmarkProgram> *Suite :
       {&section2Examples(), &table123Suite()}) {
    for (const BenchmarkProgram &B : *Suite) {
      EXPECT_FALSE(B.Key.empty());
      ++Total;
      EXPECT_TRUE(Seen.insert(B.Key).second)
          << "key " << B.Key << " shared across base suites";
    }
  }
  for (const BenchmarkProgram &B : benchmarkSuite()) {
    EXPECT_FALSE(B.Key.empty());
    ++Total;
    if (SameProgramElsewhere(B))
      ++Reused;
    else
      EXPECT_TRUE(Seen.insert(B.Key).second)
          << "key " << B.Key << " collides across suites";
  }
  EXPECT_EQ(Seen.size(), Total - Reused);
}

TEST(BenchmarkRegistryTest, KeysUniqueWithinEachSuite) {
  for (const std::vector<BenchmarkProgram> *Suite :
       {&section2Examples(), &table123Suite(), &benchmarkSuite()}) {
    std::set<std::string> Keys;
    for (const BenchmarkProgram &B : *Suite)
      EXPECT_TRUE(Keys.insert(B.Key).second)
          << "duplicate key " << B.Key;
  }
}

TEST(BenchmarkRegistryTest, SourcesNonEmpty) {
  for (const std::vector<BenchmarkProgram> *Suite :
       {&section2Examples(), &table123Suite(), &benchmarkSuite()})
    for (const BenchmarkProgram &B : *Suite) {
      EXPECT_FALSE(B.Source.empty()) << B.Key;
      EXPECT_FALSE(B.Description.empty()) << B.Key;
    }
}

TEST(BenchmarkRegistryTest, GoalSpecsParse) {
  for (const std::vector<BenchmarkProgram> *Suite :
       {&section2Examples(), &table123Suite(), &benchmarkSuite()})
    for (const BenchmarkProgram &B : *Suite) {
      std::string Err;
      EXPECT_TRUE(parseInputPattern(B.GoalSpec, &Err).has_value())
          << B.Key << ": " << Err;
    }
}

TEST(BenchmarkRegistryTest, FindBenchmarkResolvesEveryKey) {
  for (const std::vector<BenchmarkProgram> *Suite :
       {&section2Examples(), &table123Suite(), &benchmarkSuite()})
    for (const BenchmarkProgram &B : *Suite) {
      const BenchmarkProgram *Found = findBenchmark(B.Key);
      ASSERT_NE(Found, nullptr) << B.Key;
      EXPECT_EQ(Found->Source, B.Source) << B.Key;
      EXPECT_EQ(Found->GoalSpec, B.GoalSpec) << B.Key;
    }
}

} // namespace
