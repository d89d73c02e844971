#include "ppref/ppd/evaluator.h"

#include <gtest/gtest.h>

#include "ppref/common/check.h"
#include "ppref/ppd/possible_worlds.h"
#include "ppref/query/parser.h"
#include "query/paper_queries.h"

namespace ppref::ppd {
namespace {

using ppref::testing::ParsePaperQuery;

class EvaluatorTest : public ::testing::Test {
 protected:
  EvaluatorTest() : ppd_(ElectionPpd()) {}
  query::ConjunctiveQuery Parse(const std::string& text) const {
    return query::ParseQuery(text, ppd_.schema());
  }
  RimPpd ppd_;
};

TEST_F(EvaluatorTest, ItemwisePaperQueriesMatchEnumeration) {
  for (const char* text : {ppref::testing::kQ1, ppref::testing::kQ3,
                           ppref::testing::kQ4}) {
    const auto q = ParsePaperQuery(text);
    const double exact = EvaluateBoolean(ppd_, q);
    const double brute = EvaluateBooleanByEnumeration(ppd_, q);
    EXPECT_NEAR(exact, brute, 1e-10) << text;
    EXPECT_GT(exact, 0.0) << text;
  }
  // Q1 and Q3 are genuinely uncertain on this data.
  EXPECT_LT(EvaluateBoolean(ppd_, ParsePaperQuery(ppref::testing::kQ1)), 1.0);
  EXPECT_LT(EvaluateBoolean(ppd_, ParsePaperQuery(ppref::testing::kQ3)), 1.0);
  // Q4 is certain: for a male voter with a BS or JD, both same-education
  // candidates include a male... concretely Dave (M, BS): whichever of
  // Sanders/Trump ranks higher is a male above a BS candidate.
  EXPECT_DOUBLE_EQ(
      EvaluateBoolean(ppd_, ParsePaperQuery(ppref::testing::kQ4)), 1.0);
}

TEST_F(EvaluatorTest, NonItemwiseQueryThrows) {
  EXPECT_THROW(EvaluateBoolean(ppd_, ParsePaperQuery(ppref::testing::kQ2)),
               SchemaError);
}

TEST_F(EvaluatorTest, NonItemwiseQueryStillHasEnumerationSemantics) {
  const auto q2 = ParsePaperQuery(ppref::testing::kQ2);
  const double brute = EvaluateBooleanByEnumeration(ppd_, q2);
  EXPECT_GT(brute, 0.0);
  EXPECT_LT(brute, 1.0);
}

TEST_F(EvaluatorTest, QueriesWithoutPAtomsAreDeterministic) {
  EXPECT_DOUBLE_EQ(
      EvaluateBoolean(ppd_, Parse("Q() :- Candidates(_, 'D', 'F', _)")), 1.0);
  EXPECT_DOUBLE_EQ(
      EvaluateBoolean(ppd_, Parse("Q() :- Candidates(_, 'G', _, _)")), 0.0);
}

TEST_F(EvaluatorTest, SessionIndependenceCombination) {
  // "Some voter ranks Trump first in their session": per session,
  // Pr(Trump above the other three); sessions combine independently.
  const auto q = Parse(
      "Q() :- Polls(v, d; 'Trump'; 'Clinton'), Polls(v, d; 'Trump'; "
      "'Sanders'), Polls(v, d; 'Trump'; 'Rubio')");
  const double exact = EvaluateBoolean(ppd_, q);
  const double brute = EvaluateBooleanByEnumeration(ppd_, q);
  EXPECT_NEAR(exact, brute, 1e-10);
  EXPECT_GT(exact, 0.0);
}

TEST_F(EvaluatorTest, SessionConstantsEvaluateOneSession) {
  const auto q = Parse(
      "Q() :- Polls('Ann', 'Oct-5'; 'Clinton'; 'Sanders')");
  // Pr(Clinton above Sanders) under MAL(<Clinton, Sanders, Rubio, Trump>,
  // 0.3): reference agrees; must exceed 1/2.
  const double exact = EvaluateBoolean(ppd_, q);
  EXPECT_NEAR(exact, EvaluateBooleanByEnumeration(ppd_, q), 1e-10);
  EXPECT_GT(exact, 0.5);
}

TEST_F(EvaluatorTest, ImpossibleSessionConstantGivesZero) {
  const auto q = Parse("Q() :- Polls('Eve', 'Oct-5'; 'Clinton'; 'Sanders')");
  EXPECT_DOUBLE_EQ(EvaluateBoolean(ppd_, q), 0.0);
}

TEST_F(EvaluatorTest, NonBooleanAnswersMatchEnumeration) {
  // Which Democrat does Ann rank above Trump, with what confidence?
  const auto q = Parse(
      "Q(l) :- Polls('Ann', 'Oct-5'; l; 'Trump'), Candidates(l, 'D', _, _)");
  const auto exact = EvaluateQuery(ppd_, q);
  const auto brute = EvaluateQueryByEnumeration(ppd_, q);
  ASSERT_EQ(exact.size(), 2u);  // Clinton and Sanders
  ASSERT_EQ(brute.size(), 2u);
  for (const Answer& answer : exact) {
    const auto it =
        std::find_if(brute.begin(), brute.end(), [&](const Answer& b) {
          return b.tuple == answer.tuple;
        });
    ASSERT_NE(it, brute.end()) << db::ToString(answer.tuple);
    EXPECT_NEAR(answer.confidence, it->confidence, 1e-10);
  }
  // Sorted by decreasing confidence.
  EXPECT_GE(exact[0].confidence, exact[1].confidence);
}

TEST_F(EvaluatorTest, BooleanQueryThroughEvaluateQuery) {
  const auto q = Parse("Q() :- Polls('Ann', 'Oct-5'; 'Clinton'; 'Sanders')");
  const auto answers = EvaluateQuery(ppd_, q);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_TRUE(answers[0].tuple.empty());
  EXPECT_NEAR(answers[0].confidence, EvaluateBoolean(ppd_, q), 1e-12);
}

TEST_F(EvaluatorTest, PossibilityDatabaseSaturatesPairs) {
  const db::Database possibility = PossibilityDatabase(ppd_);
  // 3 sessions x 4 items x 3 = 36 ordered pairs.
  EXPECT_EQ(possibility.Instance("Polls").size(), 36u);
  EXPECT_TRUE(possibility.Instance("Polls").Contains(
      {"Ann", "Oct-5", "Trump", "Clinton"}));
  EXPECT_TRUE(possibility.Instance("Polls").Contains(
      {"Ann", "Oct-5", "Clinton", "Trump"}));
  EXPECT_EQ(possibility.Instance("Candidates").size(), 4u);
}

TEST_F(EvaluatorTest, AnswersWithZeroConfidenceAreDropped) {
  // Candidates above Trump in Eve's (nonexistent) session: no answers.
  const auto q = Parse("Q(l) :- Polls('Eve', 'Oct-5'; l; 'Trump')");
  EXPECT_TRUE(EvaluateQuery(ppd_, q).empty());
}

}  // namespace
}  // namespace ppref::ppd
