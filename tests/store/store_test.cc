#include "ppref/store/store.h"

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "ppref/common/status.h"
#include "ppref/store/format.h"

namespace ppref::store {
namespace {

/// A fresh per-test directory under the gtest temp dir. Leftovers from a
/// previous run of the same test are removed.
std::string TempStoreDir(const char* name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  dir += info->test_suite_name();
  dir += '.';
  dir += info->name();
  dir += '.';
  dir += name;
  const std::string cleanup = "rm -rf '" + dir + "'";
  [[maybe_unused]] const int rc = std::system(cleanup.c_str());
  return dir;
}

StoreOptions FastOptions(std::string dir) {
  StoreOptions options;
  options.dir = std::move(dir);
  options.flush_interval_ms = 5;
  options.fsync = false;  // Flush() still syncs; background cycles skip it
  return options;
}

std::string PayloadFor(std::uint64_t key) {
  std::string payload = "payload-" + std::to_string(key) + "-";
  payload.append(key % 97, static_cast<char>('a' + key % 23));
  return payload;
}

TEST(StoreTest, PutGetFlushReopenRoundTrip) {
  const std::string dir = TempStoreDir("roundtrip");
  {
    auto opened = Store::Open(FastOptions(dir));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<Store> store = std::move(opened).value();
    for (std::uint64_t key = 1; key <= 40; ++key) {
      store->Put(RecordKind::kPlan, key, PayloadFor(key));
      store->Put(RecordKind::kResult, key, PayloadFor(key ^ 0xFF));
    }
    // Write-behind: immediately readable before any flush.
    for (std::uint64_t key = 1; key <= 40; ++key) {
      std::optional<Store::Fetch> fetch = store->Get(RecordKind::kPlan, key);
      ASSERT_TRUE(fetch.has_value()) << "key " << key;
      EXPECT_EQ(fetch->bytes, PayloadFor(key));
    }
    ASSERT_TRUE(store->Flush().ok());
  }  // destructor: final synced flush + thread join

  auto reopened = Store::Open(FastOptions(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::unique_ptr<Store> store = std::move(reopened).value();
  for (std::uint64_t key = 1; key <= 40; ++key) {
    std::optional<Store::Fetch> plan = store->Get(RecordKind::kPlan, key);
    ASSERT_TRUE(plan.has_value()) << "key " << key;
    EXPECT_EQ(plan->bytes, PayloadFor(key));
    std::optional<Store::Fetch> result = store->Get(RecordKind::kResult, key);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->bytes, PayloadFor(key ^ 0xFF));
  }
  EXPECT_FALSE(store->Get(RecordKind::kCircuit, 1).has_value());
  const StoreStats stats = store->stats();
  EXPECT_EQ(stats.records, 80u);
  EXPECT_GT(stats.mapped_bytes, 0u);
}

TEST(StoreTest, KindsLiveInDisjointPlanes) {
  const std::string dir = TempStoreDir("planes");
  auto opened = Store::Open(FastOptions(dir));
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<Store> store = std::move(opened).value();
  store->Put(RecordKind::kPlan, 7, "plan seven");
  store->Put(RecordKind::kCircuit, 7, "circuit seven");
  store->Put(RecordKind::kResult, 7, "result seven");
  EXPECT_EQ(store->Get(RecordKind::kPlan, 7)->bytes, "plan seven");
  EXPECT_EQ(store->Get(RecordKind::kCircuit, 7)->bytes, "circuit seven");
  EXPECT_EQ(store->Get(RecordKind::kResult, 7)->bytes, "result seven");
}

TEST(StoreTest, RePutOfExistingKeyIsIgnored) {
  const std::string dir = TempStoreDir("dedup");
  auto opened = Store::Open(FastOptions(dir));
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<Store> store = std::move(opened).value();
  store->Put(RecordKind::kResult, 5, "first");
  store->Put(RecordKind::kResult, 5, "first");  // content-addressed re-Put
  ASSERT_TRUE(store->Flush().ok());
  EXPECT_EQ(store->Get(RecordKind::kResult, 5)->bytes, "first");
  EXPECT_EQ(store->stats().writes, 1u);
  EXPECT_EQ(store->stats().records, 1u);
}

TEST(StoreTest, SealingConvergesToMappedServing) {
  const std::string dir = TempStoreDir("seal");
  StoreOptions options = FastOptions(dir);
  options.seal_bytes = 4 * 1024;  // force several seals
  auto opened = Store::Open(options);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<Store> store = std::move(opened).value();
  for (std::uint64_t key = 1; key <= 200; ++key) {
    store->Put(RecordKind::kResult, key, PayloadFor(key));
    if (key % 25 == 0) {
      ASSERT_TRUE(store->Flush().ok());
    }
  }
  ASSERT_TRUE(store->Flush().ok());
  const StoreStats stats = store->stats();
  EXPECT_GT(stats.segments, 2u);
  EXPECT_GT(stats.mapped_bytes, 0u);
  // Everything is still readable after its segment sealed.
  for (std::uint64_t key = 1; key <= 200; ++key) {
    std::optional<Store::Fetch> fetch = store->Get(RecordKind::kResult, key);
    ASSERT_TRUE(fetch.has_value()) << "key " << key;
    EXPECT_EQ(fetch->bytes, PayloadFor(key));
  }
}

TEST(StoreTest, CompactionRespectsBudgetAndKeepsNewest) {
  const std::string dir = TempStoreDir("compact");
  StoreOptions options = FastOptions(dir);
  options.seal_bytes = 4 * 1024;
  options.max_bytes = 16 * 1024;
  auto opened = Store::Open(options);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<Store> store = std::move(opened).value();
  for (std::uint64_t key = 1; key <= 600; ++key) {
    store->Put(RecordKind::kResult, key, PayloadFor(key));
    if (key % 40 == 0) {
      ASSERT_TRUE(store->Flush().ok());
    }
  }
  ASSERT_TRUE(store->Flush().ok());
  const StoreStats stats = store->stats();
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_GT(stats.dropped_records, 0u);
  EXPECT_LT(stats.records, 600u);
  // The newest keys survive compaction; a recent key must still be served.
  std::optional<Store::Fetch> newest = store->Get(RecordKind::kResult, 600);
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->bytes, PayloadFor(600));
}

TEST(StoreTest, FetchOwnerOutlivesCompaction) {
  const std::string dir = TempStoreDir("owner");
  StoreOptions options = FastOptions(dir);
  options.seal_bytes = 2 * 1024;
  options.max_bytes = 4 * 1024;
  auto opened = Store::Open(options);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<Store> store = std::move(opened).value();
  for (std::uint64_t key = 1; key <= 50; ++key) {
    store->Put(RecordKind::kResult, key, PayloadFor(key));
  }
  ASSERT_TRUE(store->Flush().ok());
  // Hold a fetch while compaction churns underneath it.
  std::optional<Store::Fetch> held = store->Get(RecordKind::kResult, 1);
  const std::string snapshot =
      held.has_value() ? std::string(held->bytes) : std::string();
  for (std::uint64_t key = 51; key <= 400; ++key) {
    store->Put(RecordKind::kResult, key, PayloadFor(key));
    if (key % 30 == 0) {
      ASSERT_TRUE(store->Flush().ok());
    }
  }
  ASSERT_TRUE(store->Flush().ok());
  if (held.has_value()) {
    // The view must still read the original bytes even if the backing file
    // was compacted away and unlinked (ASan would flag a dangling mapping).
    EXPECT_EQ(held->bytes, snapshot);
  }
}

TEST(StoreTest, ConcurrentPutGetFlush) {
  const std::string dir = TempStoreDir("threads");
  StoreOptions options = FastOptions(dir);
  options.seal_bytes = 8 * 1024;
  auto opened = Store::Open(options);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<Store> store = std::move(opened).value();

  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 120;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t key = static_cast<std::uint64_t>(t) * 100000 + i;
        store->Put(RecordKind::kResult, key, PayloadFor(key));
        std::optional<Store::Fetch> fetch =
            store->Get(RecordKind::kResult, key);
        ASSERT_TRUE(fetch.has_value());
        EXPECT_EQ(fetch->bytes, PayloadFor(key));
        if (i % 37 == 0) {
          EXPECT_TRUE(store->Flush().ok());
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_TRUE(store->Flush().ok());
  EXPECT_EQ(store->stats().records, kThreads * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      const std::uint64_t key = static_cast<std::uint64_t>(t) * 100000 + i;
      ASSERT_TRUE(store->Get(RecordKind::kResult, key).has_value());
    }
  }
}

TEST(StoreTest, StatsTrackHitsAndMisses) {
  const std::string dir = TempStoreDir("stats");
  auto opened = Store::Open(FastOptions(dir));
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<Store> store = std::move(opened).value();
  store->Put(RecordKind::kPlan, 1, "x");
  EXPECT_TRUE(store->Get(RecordKind::kPlan, 1).has_value());
  EXPECT_FALSE(store->Get(RecordKind::kPlan, 2).has_value());
  const StoreStats stats = store->stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.writes, 1u);
}

TEST(StoreTest, OpenFailsOnForeignFileNotAbort) {
  const std::string dir = TempStoreDir("foreign");
  ASSERT_EQ(mkdir(dir.c_str(), 0755), 0);
  const std::string path = dir + "/seg-000001.ppst";
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  const char junk[] = "not a ppst segment at all";
  std::fwrite(junk, 1, sizeof(junk), file);
  std::fclose(file);

  auto opened = Store::Open(FastOptions(dir));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInternal);
}

TEST(StoreTest, ReopenAfterTornTailServesTheCleanPrefix) {
  const std::string dir = TempStoreDir("torn");
  std::string segment_path;
  {
    auto opened = Store::Open(FastOptions(dir));
    ASSERT_TRUE(opened.ok());
    std::unique_ptr<Store> store = std::move(opened).value();
    for (std::uint64_t key = 1; key <= 10; ++key) {
      store->Put(RecordKind::kResult, key, PayloadFor(key));
    }
    ASSERT_TRUE(store->Flush().ok());
  }
  // Simulate a crash mid-append: garbage on the tail of the first segment.
  segment_path = dir + "/seg-000001.ppst";
  std::FILE* file = std::fopen(segment_path.c_str(), "ab");
  ASSERT_NE(file, nullptr);
  const char torn[] = {0x11, 0x22, 0x33, 0x44, 0x55};
  std::fwrite(torn, 1, sizeof(torn), file);
  std::fclose(file);

  auto reopened = Store::Open(FastOptions(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::unique_ptr<Store> store = std::move(reopened).value();
  EXPECT_GT(store->stats().torn_bytes_recovered, 0u);
  for (std::uint64_t key = 1; key <= 10; ++key) {
    std::optional<Store::Fetch> fetch = store->Get(RecordKind::kResult, key);
    ASSERT_TRUE(fetch.has_value()) << "key " << key;
    EXPECT_EQ(fetch->bytes, PayloadFor(key));
  }
}

/// Kill -9 crash recovery. Named outside the `Store*` prefix on purpose:
/// check.sh's TSan stages run `-R '^Store|...'` and TSan instrumented
/// binaries are fork-hostile — this fixture only runs under ASan/regular
/// builds.
TEST(CrashStoreTest, Kill9ThenReopenIsBitIdentical) {
  const std::string dir = TempStoreDir("kill9");
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: write, flush to disk, then die without any cleanup. _exit
    // paths (destructors, atexit) must NOT run — SIGKILL guarantees that.
    auto opened = Store::Open(FastOptions(dir));
    if (!opened.ok()) _exit(3);
    std::unique_ptr<Store> store = std::move(opened).value();
    for (std::uint64_t key = 1; key <= 25; ++key) {
      store->Put(RecordKind::kPlan, key, PayloadFor(key));
    }
    if (!store->Flush().ok()) _exit(4);
    raise(SIGKILL);
    _exit(5);  // unreachable
  }
  int wait_status = 0;
  ASSERT_EQ(waitpid(child, &wait_status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wait_status));
  ASSERT_EQ(WTERMSIG(wait_status), SIGKILL);

  auto reopened = Store::Open(FastOptions(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::unique_ptr<Store> store = std::move(reopened).value();
  for (std::uint64_t key = 1; key <= 25; ++key) {
    std::optional<Store::Fetch> fetch = store->Get(RecordKind::kPlan, key);
    ASSERT_TRUE(fetch.has_value()) << "key " << key;
    EXPECT_EQ(fetch->bytes, PayloadFor(key));
  }
}

TEST(CrashStoreTest, Kill9MidPutLosesOnlyUnflushedWrites) {
  const std::string dir = TempStoreDir("kill9mid");
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    auto opened = Store::Open(FastOptions(dir));
    if (!opened.ok()) _exit(3);
    std::unique_ptr<Store> store = std::move(opened).value();
    for (std::uint64_t key = 1; key <= 10; ++key) {
      store->Put(RecordKind::kResult, key, PayloadFor(key));
    }
    if (!store->Flush().ok()) _exit(4);
    // These may or may not reach disk — the contract is only that the
    // flushed prefix survives and recovery never fails.
    for (std::uint64_t key = 11; key <= 20; ++key) {
      store->Put(RecordKind::kResult, key, PayloadFor(key));
    }
    raise(SIGKILL);
    _exit(5);
  }
  int wait_status = 0;
  ASSERT_EQ(waitpid(child, &wait_status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wait_status));

  auto reopened = Store::Open(FastOptions(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::unique_ptr<Store> store = std::move(reopened).value();
  for (std::uint64_t key = 1; key <= 10; ++key) {
    std::optional<Store::Fetch> fetch = store->Get(RecordKind::kResult, key);
    ASSERT_TRUE(fetch.has_value()) << "flushed key " << key << " lost";
    EXPECT_EQ(fetch->bytes, PayloadFor(key));
  }
}

}  // namespace
}  // namespace ppref::store
