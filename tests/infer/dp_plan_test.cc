/// \file dp_plan_test.cc
/// \brief Tests for the compile-once / run-many DP plan: plan reuse across
/// candidate matchings, stop polling between runs, the packed-state engine
/// against the brute-force oracle, and the FlatStateMap substrate itself.

#include "ppref/infer/internal/dp_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ppref/common/flat_map.h"
#include "ppref/infer/brute_force.h"
#include "ppref/infer/internal/dp_engine.h"
#include "ppref/infer/top_prob.h"
#include "ppref/infer/top_prob_minmax.h"
#include "ppref/rim/mallows.h"
#include "test_util.h"

namespace ppref::infer {
namespace {

TEST(FlatStateMapTest, UpsertAccumulatesAndIteratesInInsertionOrder) {
  FlatStateMap map;
  map.Reset(3);
  const std::uint16_t a[3] = {1, 2, 3};
  const std::uint16_t b[3] = {1, 2, 4};
  map.Upsert(a) += 0.5;
  map.Upsert(b) += 0.25;
  map.Upsert(a) += 0.5;
  ASSERT_EQ(map.size(), 2u);
  EXPECT_TRUE(std::equal(a, a + 3, map.KeyAt(0)));
  EXPECT_DOUBLE_EQ(map.ValueAt(0), 1.0);
  EXPECT_TRUE(std::equal(b, b + 3, map.KeyAt(1)));
  EXPECT_DOUBLE_EQ(map.ValueAt(1), 0.25);
}

TEST(FlatStateMapTest, ResetRecyclesAndZeroStrideCollapsesAllKeys) {
  FlatStateMap map;
  map.Reset(1);
  for (std::uint16_t v = 0; v < 1000; ++v) map.Upsert(&v) += 1.0;
  ASSERT_EQ(map.size(), 1000u);
  map.Reset(0);
  EXPECT_TRUE(map.empty());
  map.Upsert(nullptr) += 0.5;
  map.Upsert(nullptr) += 0.5;
  ASSERT_EQ(map.size(), 1u);
  EXPECT_DOUBLE_EQ(map.ValueAt(0), 1.0);
}

TEST(FlatStateMapTest, SurvivesGrowthRehash) {
  // Push far past several doublings and verify every key's accumulator.
  FlatStateMap map;
  map.Reset(2);
  for (std::uint16_t i = 0; i < 5000; ++i) {
    const std::uint16_t key[2] = {i, static_cast<std::uint16_t>(i ^ 0x5a5a)};
    map.Upsert(key) += i;
    map.Upsert(key) += 1.0;
  }
  ASSERT_EQ(map.size(), 5000u);
  for (std::uint16_t i = 0; i < 5000; ++i) {
    EXPECT_DOUBLE_EQ(map.ValueAt(i), static_cast<double>(i) + 1.0);
    EXPECT_EQ(map.KeyAt(i)[0], i);
  }
}

TEST(DpPlanTest, PlanReuseAcrossGammaMatchesFreshRunsExactly) {
  // (a) One plan + one scratch across every candidate γ must produce the
  // exact doubles of a fresh plan/scratch per γ (the old per-run path).
  Rng rng(71);
  for (int trial = 0; trial < 30; ++trial) {
    const unsigned m = 3 + static_cast<unsigned>(rng.NextIndex(4));
    const unsigned k = 1 + static_cast<unsigned>(rng.NextIndex(3));
    const auto model = ppref::testing::RandomLabeledRim(m, k, 0.6, rng);
    const auto pattern = ppref::testing::RandomDagPattern(k, 0.5, rng);
    const internal::DpPlan plan(model, pattern, /*tracked=*/{});
    internal::DpPlan::Scratch scratch;
    for (const Matching& gamma :
         internal::EnumerateCandidates(model, pattern)) {
      const double reused = plan.TopProb(gamma, nullptr, scratch);
      const double fresh =
          internal::RunTopProbDp(model, pattern, gamma, {}, nullptr);
      ASSERT_EQ(reused, fresh) << "trial " << trial;  // bitwise, not NEAR
    }
  }
}

TEST(DpPlanTest, PlanReuseWithTrackedLabelsMatchesFreshRuns) {
  Rng rng(73);
  const MinMaxCondition in_top_half = [](const MinMaxValues& values) {
    return values.min_position[0].has_value() &&
           *values.min_position[0] <= 2;
  };
  for (int trial = 0; trial < 20; ++trial) {
    const unsigned m = 4 + static_cast<unsigned>(rng.NextIndex(3));
    const auto model = ppref::testing::RandomLabeledRim(m, 3, 0.5, rng);
    const auto pattern = ppref::testing::RandomDagPattern(2, 0.6, rng);
    const std::vector<LabelId> tracked = {2};
    const internal::DpPlan plan(model, pattern, tracked);
    internal::DpPlan::Scratch scratch;
    for (const Matching& gamma :
         internal::EnumerateCandidates(model, pattern)) {
      ASSERT_EQ(plan.TopProb(gamma, &in_top_half, scratch),
                internal::RunTopProbDp(model, pattern, gamma, tracked,
                                       &in_top_half))
          << "trial " << trial;
    }
  }
}

TEST(DpPlanTest, FiredTokenStopsARequestOfShortRuns) {
  // 16 candidate runs, each too short to reach the amortized StopCheck's
  // first poll, so only the poll at the start of each run can stop the
  // request.
  constexpr unsigned kItems = 8;
  ItemLabeling labeling(kItems);
  for (unsigned item = 0; item < kItems; ++item) {
    labeling.AddLabel(item, item % 2);
  }
  const LabeledRimModel model(
      rim::MallowsModel(rim::Ranking::Identity(kItems), 0.5).rim(), labeling);
  LabelPattern chain;
  chain.AddNode(0);
  chain.AddNode(1);
  chain.AddEdge(0, 1);
  ASSERT_EQ(CandidateTopMatchings(model, chain).size(), 16u);
  CancellationToken token;
  token.Cancel();
  RunControl control;
  control.cancel = &token;
  PatternProbOptions options;
  options.control = &control;
  EXPECT_THROW(PatternProb(model, chain, options), CancelledError);
}

TEST(DpPlanTest, PackedStateDpMatchesBruteForceOnSmallModels) {
  // (c) The packed-state engine against the factorial-sum oracle on every
  // model family the seed tests use, m <= 6.
  Rng rng(97);
  for (unsigned m = 3; m <= 6; ++m) {
    for (unsigned k = 1; k <= 3; ++k) {
      for (int trial = 0; trial < 6; ++trial) {
        const auto model = ppref::testing::RandomLabeledRim(m, k, 0.5, rng);
        const auto pattern = ppref::testing::RandomDagPattern(k, 0.5, rng);
        ASSERT_NEAR(PatternProb(model, pattern),
                    PatternProbBruteForce(model, pattern), 1e-10)
            << "m=" << m << " k=" << k << " trial=" << trial;
      }
    }
  }
}

TEST(DpPlanTest, PackedMinMaxDpMatchesBruteForceOnSmallModels) {
  Rng rng(101);
  const std::vector<LabelId> tracked = {0, 1};
  const MinMaxCondition condition = [](const MinMaxValues& values) {
    // "every item with label 0 before every item with label 1", vacuous on
    // absence — exercises both α/β slots and the unset sentinel.
    if (!values.max_position[0].has_value() ||
        !values.min_position[1].has_value()) {
      return true;
    }
    return *values.max_position[0] < *values.min_position[1];
  };
  for (unsigned m = 3; m <= 6; ++m) {
    for (int trial = 0; trial < 8; ++trial) {
      const auto model = ppref::testing::RandomLabeledRim(m, 2, 0.5, rng);
      const auto pattern = ppref::testing::RandomDagPattern(
          1 + static_cast<unsigned>(rng.NextIndex(2)), 0.5, rng);
      ASSERT_NEAR(PatternMinMaxProb(model, pattern, tracked, condition),
                  PatternMinMaxProbBruteForce(model, pattern, tracked,
                                              condition),
                  1e-10)
          << "m=" << m << " trial=" << trial;
    }
  }
}

TEST(DpPlanTest, ForEachCandidateStreamsTheEnumeratedVector) {
  Rng rng(103);
  for (int trial = 0; trial < 20; ++trial) {
    const unsigned m = 3 + static_cast<unsigned>(rng.NextIndex(4));
    const unsigned k = 1 + static_cast<unsigned>(rng.NextIndex(3));
    const auto model = ppref::testing::RandomLabeledRim(m, k, 0.6, rng);
    const auto pattern = ppref::testing::RandomDagPattern(k, 0.5, rng);
    for (bool prune : {true, false}) {
      std::vector<Matching> streamed;
      internal::ForEachCandidate(
          model, pattern,
          [&](const Matching& gamma) { streamed.push_back(gamma); }, prune);
      EXPECT_EQ(streamed,
                internal::EnumerateCandidates(model, pattern, prune))
          << "trial " << trial << " prune " << prune;
    }
  }
}

TEST(DpPlanTest, ScratchSurvivesInfeasibleAndEmptyPatternRuns) {
  // A scratch must stay reusable after infeasible γ (early returns) and
  // across patterns of different state sizes via separate plans.
  ItemLabeling labeling(4);
  labeling.AddLabel(0, 0);
  labeling.AddLabel(1, 1);
  const LabeledRimModel model(
      rim::RimModel(rim::Ranking::Identity(4),
                    rim::InsertionFunction::Uniform(4)),
      labeling);
  LabelPattern edge;
  edge.AddNode(0);
  edge.AddNode(1);
  edge.AddEdge(0, 1);
  internal::DpPlan::Scratch scratch;
  const internal::DpPlan plan(model, edge, /*tracked=*/{});
  EXPECT_DOUBLE_EQ(plan.TopProb({0, 0}, nullptr, scratch), 0.0);  // bad label
  EXPECT_DOUBLE_EQ(plan.TopProb({0, 1}, nullptr, scratch), 0.5);
  const internal::DpPlan empty(model, LabelPattern{}, /*tracked=*/{});
  EXPECT_DOUBLE_EQ(empty.TopProb({}, nullptr, scratch), 1.0);
  EXPECT_DOUBLE_EQ(plan.TopProb({0, 1}, nullptr, scratch), 0.5);
}

}  // namespace
}  // namespace ppref::infer
