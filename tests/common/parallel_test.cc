#include "ppref/common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace ppref {
namespace {

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  for (unsigned threads : {1u, 2u, 4u, 7u}) {
    std::vector<std::atomic<int>> hits(100);
    ParallelFor(100, threads, [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << threads;
  }
}

TEST(ParallelForTest, ZeroAndSingleIterations) {
  unsigned calls = 0;
  ParallelFor(0, 4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0u);
  ParallelFor(1, 4, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
}

TEST(ParallelForTest, MoreThreadsThanWork) {
  std::vector<std::atomic<int>> hits(3);
  ParallelFor(3, 16, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, ResultsAreDeterministic) {
  // Writing disjoint slots in parallel and combining in order gives the
  // same result as serial execution.
  std::vector<double> serial(64), parallel(64);
  auto fill = [](std::vector<double>& out, std::size_t i) {
    out[i] = 1.0 / (1.0 + static_cast<double>(i));
  };
  ParallelFor(64, 1, [&](std::size_t i) { fill(serial, i); });
  ParallelFor(64, 8, [&](std::size_t i) { fill(parallel, i); });
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelForTest, ExceptionsPropagate) {
  EXPECT_THROW(ParallelFor(16, 4,
                           [](std::size_t i) {
                             if (i == 7) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
}

}  // namespace
}  // namespace ppref
