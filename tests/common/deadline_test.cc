/// \file deadline_test.cc
/// \brief Deadline / CancellationToken / RunControl / StopCheck semantics,
/// plus ParallelFor bodies that stop through RunControl::Check() (workers
/// join before the stop exception rethrows).

#include "ppref/common/deadline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "ppref/common/parallel.h"

namespace ppref {
namespace {

TEST(DeadlineTest, DefaultIsInfinite) {
  const Deadline deadline;
  EXPECT_TRUE(deadline.IsInfinite());
  EXPECT_FALSE(deadline.Expired());
  EXPECT_EQ(deadline.RemainingNs(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(Deadline::Infinite().IsInfinite());
}

TEST(DeadlineTest, AfterExpires) {
  const Deadline deadline = Deadline::After(0);
  EXPECT_FALSE(deadline.IsInfinite());
  EXPECT_TRUE(deadline.Expired());
  EXPECT_EQ(deadline.RemainingNs(), 0u);
}

TEST(DeadlineTest, FarDeadlineHasRemainingBudget) {
  const Deadline deadline = Deadline::After(60'000'000'000ull);  // one minute
  EXPECT_FALSE(deadline.Expired());
  EXPECT_GT(deadline.RemainingNs(), 1'000'000'000ull);
}

TEST(CancellationTokenTest, FiresOnceAndIsVisibleAcrossThreads) {
  CancellationToken token;
  EXPECT_FALSE(token.Cancelled());
  std::thread canceller([&token] { token.Cancel(); });
  canceller.join();
  EXPECT_TRUE(token.Cancelled());
}

TEST(RunControlTest, NoConditionsNeverStops) {
  const RunControl control;
  EXPECT_FALSE(control.Stopped());
  EXPECT_NO_THROW(control.Check());
}

TEST(RunControlTest, ExpiredDeadlineThrowsDeadlineExceeded) {
  RunControl control;
  control.deadline = Deadline::After(0);
  EXPECT_TRUE(control.Stopped());
  EXPECT_THROW(control.Check(), DeadlineExceededError);
}

TEST(RunControlTest, FiredTokenThrowsCancelled) {
  CancellationToken token;
  token.Cancel();
  RunControl control;
  control.cancel = &token;
  EXPECT_TRUE(control.Stopped());
  EXPECT_THROW(control.Check(), CancelledError);
}

TEST(RunControlTest, CancellationWinsTies) {
  // Both conditions hold; the more specific intent (the caller's explicit
  // cancel) names the outcome.
  CancellationToken token;
  token.Cancel();
  RunControl control;
  control.deadline = Deadline::After(0);
  control.cancel = &token;
  EXPECT_THROW(control.Check(), CancelledError);
}

TEST(StopCheckTest, NullControlIsFree) {
  StopCheck stop(nullptr, /*stride=*/1);
  for (int i = 0; i < 10; ++i) EXPECT_NO_THROW(stop.Tick());
}

TEST(StopCheckTest, ChecksEveryStrideTicks) {
  RunControl control;
  control.deadline = Deadline::After(0);
  StopCheck stop(&control, /*stride=*/4);
  // Ticks 1..3 only count down; the 4th reads the (expired) deadline.
  EXPECT_NO_THROW(stop.Tick());
  EXPECT_NO_THROW(stop.Tick());
  EXPECT_NO_THROW(stop.Tick());
  EXPECT_THROW(stop.Tick(), DeadlineExceededError);
}

TEST(ParallelControlTest, WorkersStopAndJoinOnCancel) {
  // A token fired mid-run must (a) surface as CancelledError on the calling
  // thread and (b) leave no worker running — every slot a worker completed
  // stays valid, nothing tears. Each iteration polls first, as
  // hard::RunSeededBlocks does.
  CancellationToken token;
  RunControl control;
  control.cancel = &token;
  std::atomic<std::size_t> completed{0};
  try {
    ParallelFor(10'000, 4, [&](std::size_t i) {
      control.Check();
      if (i == 17) token.Cancel();
      completed.fetch_add(1, std::memory_order_relaxed);
    });
    FAIL() << "expected CancelledError";
  } catch (const CancelledError&) {
  }
  // Join happened inside ParallelFor: the counter is final now and
  // strictly below the full count (the stop really cut the run short).
  const std::size_t after = completed.load();
  EXPECT_LT(after, 10'000u);
  EXPECT_EQ(after, completed.load());
}

TEST(ParallelControlTest, ExpiredDeadlineStopsBeforeAnyIteration) {
  RunControl control;
  control.deadline = Deadline::After(0);
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(ParallelFor(100, 2,
                           [&](std::size_t) {
                             control.Check();
                             ran.fetch_add(1, std::memory_order_relaxed);
                           }),
               DeadlineExceededError);
  EXPECT_EQ(ran.load(), 0u);
}

}  // namespace
}  // namespace ppref
