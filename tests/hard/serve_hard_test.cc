/// \file serve_hard_test.cc
/// \brief serve::Server hard-tier contract tests: hard answers are cached
/// and replay bit-identically, pooled batches share cache entries with solo
/// calls, consensus truncates a cached full ranking, and the stats /
/// instruments account for all of it.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "ppref/common/random.h"
#include "ppref/infer/labeled_rim.h"
#include "ppref/infer/labeling.h"
#include "ppref/infer/pattern.h"
#include "ppref/infer/top_prob.h"
#include "ppref/rim/mallows.h"
#include "ppref/rim/ranking.h"
#include "ppref/serve/server.h"
#include "test_util.h"

namespace ppref::serve {
namespace {

infer::LabeledRimModel MakeModel(unsigned m, double phi) {
  infer::ItemLabeling labeling(m);
  for (unsigned item = 0; item < m; ++item) labeling.AddLabel(item, item % 3);
  return infer::LabeledRimModel(
      rim::MallowsModel(rim::Ranking::Identity(m), phi).rim(), labeling);
}

infer::LabelPattern Chain(const std::vector<unsigned>& labels) {
  infer::LabelPattern pattern;
  std::vector<unsigned> nodes;
  for (unsigned label : labels) nodes.push_back(pattern.AddNode(label));
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    pattern.AddEdge(nodes[i - 1], nodes[i]);
  }
  return pattern;
}

TEST(HardServeTest, HardAnswersAreCachedAndReplayBitIdentically) {
  const infer::LabeledRimModel model = MakeModel(7, 0.5);
  const infer::LabelPattern pattern = Chain({0, 1});
  Server server;
  const StatusOr<HardEstimate> first =
      server.HardPatternProb(model, pattern, 0.02);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_GT(first->n_samples, 0u);
  EXPECT_FALSE(first->deadline_limited);
  const StatusOr<HardEstimate> second =
      server.HardPatternProb(model, pattern, 0.02);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->estimate, second->estimate);
  EXPECT_EQ(first->std_error, second->std_error);
  EXPECT_EQ(first->n_samples, second->n_samples);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.hard_requests, 2u);
  EXPECT_EQ(stats.hard_cache.misses, 1u);
  EXPECT_EQ(stats.hard_cache.hits, 1u);
  // The cache hit consumed no fresh worlds.
  EXPECT_EQ(stats.hard_samples, first->n_samples);
  // The estimate is consistent with exact inference at its claimed error.
  const double exact = infer::PatternProb(model, pattern);
  EXPECT_NEAR(first->estimate, exact, 5.0 * first->std_error + 1e-3);
}

TEST(HardServeTest, PooledBatchBitIdenticalToSoloAndSharesCache) {
  const infer::LabeledRimModel model = MakeModel(7, 0.6);
  std::vector<infer::LabelPattern> patterns;
  patterns.push_back(Chain({0}));
  patterns.push_back(Chain({0, 1}));
  patterns.push_back(Chain({2, 1, 0}));
  std::vector<const infer::LabelPattern*> pointers;
  for (const auto& pattern : patterns) pointers.push_back(&pattern);

  // Solo answers from a fresh server (no shared cache with the batch one).
  Server solo_server;
  std::vector<HardEstimate> solo;
  for (const auto& pattern : patterns) {
    StatusOr<HardEstimate> answer =
        solo_server.HardPatternProb(model, pattern, 0.02);
    ASSERT_TRUE(answer.ok());
    solo.push_back(*answer);
  }

  Server batch_server;
  const StatusOr<std::vector<HardEstimate>> pooled =
      batch_server.HardPatternProbBatch(model, pointers, 0.02);
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
  ASSERT_EQ(pooled->size(), patterns.size());
  for (std::size_t q = 0; q < patterns.size(); ++q) {
    EXPECT_EQ((*pooled)[q].estimate, solo[q].estimate) << "query " << q;
    EXPECT_EQ((*pooled)[q].std_error, solo[q].std_error) << "query " << q;
    EXPECT_EQ((*pooled)[q].n_samples, solo[q].n_samples) << "query " << q;
  }
  EXPECT_EQ(batch_server.stats().hard_batches, 1u);
  EXPECT_EQ(batch_server.stats().hard_requests, patterns.size());

  // Solo calls after the batch hit the entries the batch inserted.
  for (const auto& pattern : patterns) {
    ASSERT_TRUE(batch_server.HardPatternProb(model, pattern, 0.02).ok());
  }
  EXPECT_EQ(batch_server.stats().hard_cache.hits, patterns.size());
}

TEST(HardServeTest, ConsensusTruncatesOneCachedFullRanking) {
  const infer::LabeledRimModel model = MakeModel(6, 0.3);
  Server server;
  const StatusOr<ConsensusAnswer> top2 = server.ConsensusTopK(model, 2);
  ASSERT_TRUE(top2.ok()) << top2.status().ToString();
  EXPECT_EQ(top2->ranking.size(), 2u);
  EXPECT_GT(top2->n_samples, 0u);
  // A different k re-truncates the cached full consensus: prefix-consistent
  // and no second sampling pass.
  const StatusOr<ConsensusAnswer> top4 = server.ConsensusTopK(model, 4);
  ASSERT_TRUE(top4.ok());
  ASSERT_EQ(top4->ranking.size(), 4u);
  EXPECT_EQ(top4->ranking[0], top2->ranking[0]);
  EXPECT_EQ(top4->ranking[1], top2->ranking[1]);
  EXPECT_EQ(top4->mean_footrule, top2->mean_footrule);
  EXPECT_EQ(top4->mean_kendall, top2->mean_kendall);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.consensus_requests, 2u);
  EXPECT_EQ(stats.hard_cache.misses, 1u);
  EXPECT_EQ(stats.hard_cache.hits, 1u);
  // k past m clamps to the full ranking.
  const StatusOr<ConsensusAnswer> all = server.ConsensusTopK(model, 100);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->ranking.size(), 6u);
  // phi = 0.3 concentrates on the identity reference: the consensus leads
  // with item 0.
  EXPECT_EQ(all->ranking[0], 0u);
}

TEST(HardServeTest, ConcurrentConsensusRequestsSampleOnce) {
  // Four identical requests released together: one samples, the other three
  // wait for its ranking (single flight) instead of sampling again.
  const infer::LabeledRimModel model = MakeModel(12, 0.5);
  Server server;
  std::atomic<bool> go{false};
  std::vector<StatusOr<ConsensusAnswer>> answers(
      4, Status::Internal("not run"));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < answers.size(); ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      answers[t] = server.ConsensusTopK(model, 3);
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();

  for (const StatusOr<ConsensusAnswer>& answer : answers) {
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(answer->ranking, answers.front()->ranking);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.consensus_requests, 4u);
  EXPECT_EQ(stats.hard_cache.misses, 1u);
  EXPECT_EQ(stats.hard_samples, answers.front()->n_samples);
}

TEST(HardServeTest, NearDeadDeadlineBuysCoarserDeterministicAnswer) {
  // The request deadline coarsens the effective precision target (the
  // DeadlineTargetFloor) as a pure function of the deadline *value*, so a
  // near-dead deadline yields a cheap, honest answer that is still
  // deterministic — and therefore cacheable and bit-reproducible.
  const infer::LabeledRimModel model = MakeModel(8, 0.5);
  const infer::LabelPattern pattern = Chain({0, 1, 2});
  ServerOptions options;
  options.hard_default_target = 1e-9;  // unreachable on its own
  Server server(options);
  RequestControl control;
  control.deadline_ns = 500'000;  // < 1ms: effective target floors at 0.05
  const StatusOr<HardEstimate> coarse =
      server.HardPatternProb(model, pattern, 0.0, control);
  ASSERT_TRUE(coarse.ok()) << coarse.status().ToString();
  EXPECT_TRUE(coarse->target_met);
  EXPECT_FALSE(coarse->deadline_limited);
  // One block already beats a 0.05 half-width: the coarse answer is cheap.
  EXPECT_LE(coarse->n_samples, 2048u);
  EXPECT_LE(options.hard_z * coarse->std_error, 0.05);
  // Deterministic -> cached; the identical request replays bit for bit.
  const StatusOr<HardEstimate> replay =
      server.HardPatternProb(model, pattern, 0.0, control);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(coarse->estimate, replay->estimate);
  EXPECT_EQ(coarse->std_error, replay->std_error);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.hard_target_met, 1u);  // the hit re-reports, not re-runs
  EXPECT_EQ(stats.hard_cache.insertions, 1u);
  EXPECT_EQ(stats.hard_cache.hits, 1u);
}

}  // namespace
}  // namespace ppref::serve
