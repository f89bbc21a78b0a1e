// Thread-safety smoke tests: writers serialize behind the engine's internal
// mutex while readers run lock-free against published snapshots; concurrent
// callers must observe consistent results and never corrupt state.
// (Heavier scenarios live in concurrent_stress_test.cc.)

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "io/env.h"
#include "lsm/db.h"
#include "monkey/monkey_db.h"
#include "util/random.h"

namespace monkeydb {
namespace {

TEST(Concurrency, ParallelWritersDistinctKeyRanges) {
  auto env = NewMemEnv();
  DbOptions options;
  options.env = env.get();
  options.buffer_size_bytes = 16 << 10;
  options.fpr_policy = monkey::NewMonkeyFprPolicy();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      WriteOptions wo;
      for (int i = 0; i < kPerThread; i++) {
        const std::string key =
            "t" + std::to_string(t) + "_" + std::to_string(i);
        const std::string val = "v" + std::to_string(i);
        if (!db->Put(wo, key, val).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  ReadOptions ro;
  std::string value;
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < kPerThread; i += 97) {
      const std::string key =
          "t" + std::to_string(t) + "_" + std::to_string(i);
      ASSERT_TRUE(db->Get(ro, key, &value).ok()) << key;
      EXPECT_EQ(value, "v" + std::to_string(i));
    }
  }
  EXPECT_EQ(db->GetStats().total_disk_entries + db->GetStats().memtable_entries,
            static_cast<uint64_t>(kThreads * kPerThread));
}

TEST(Concurrency, ReadersConcurrentWithWriter) {
  auto env = NewMemEnv();
  DbOptions options;
  options.env = env.get();
  options.buffer_size_bytes = 16 << 10;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());

  WriteOptions wo;
  for (int i = 0; i < 5000; i++) {
    const std::string key = "stable" + std::to_string(i);
    ASSERT_TRUE(db->Put(wo, key, "sv").ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> read_errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; t++) {
    readers.emplace_back([&, t] {
      Random rng(t + 1);
      ReadOptions ro;
      std::string value;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string key =
            "stable" + std::to_string(rng.Uniform(5000));
        Status s = db->Get(ro, key, &value);
        if (!s.ok() || value != "sv") read_errors.fetch_add(1);
      }
    });
  }

  // Writer churns new keys, forcing flushes and compactions while the
  // readers run.
  for (int i = 0; i < 20000; i++) {
    const std::string key = "churn" + std::to_string(i);
    const std::string payload = std::string(32, 'c');
    ASSERT_TRUE(
        db->Put(wo, key, payload).ok());
  }
  stop.store(true);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(read_errors.load(), 0);
}

// Same reader/writer pattern as above, but with the background flush
// pipeline switched on: readers must stay consistent while memtables
// freeze and the worker merges runs underneath them. Every merge policy
// runs it, so each one's flush-priority yield and the worker's resume of
// an abandoned cascade are exercised.
class BackgroundChurn : public ::testing::TestWithParam<MergePolicy> {};

TEST_P(BackgroundChurn, ReadersUnderBackgroundCompactionChurn) {
  auto env = NewMemEnv();
  DbOptions options;
  options.env = env.get();
  options.merge_policy = GetParam();
  options.buffer_size_bytes = 8 << 10;
  options.background_compaction = true;
  options.max_immutable_memtables = 2;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());

  WriteOptions wo;
  for (int i = 0; i < 5000; i++) {
    const std::string key = "stable" + std::to_string(i);
    ASSERT_TRUE(db->Put(wo, key, "sv").ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> read_errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; t++) {
    readers.emplace_back([&, t] {
      Random rng(t + 1);
      ReadOptions ro;
      std::string value;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string key =
            "stable" + std::to_string(rng.Uniform(5000));
        Status s = db->Get(ro, key, &value);
        if (!s.ok() || value != "sv") read_errors.fetch_add(1);
      }
    });
  }

  for (int i = 0; i < 20000; i++) {
    const std::string key = "churn" + std::to_string(i);
    const std::string payload = std::string(32, 'c');
    ASSERT_TRUE(
        db->Put(wo, key, payload).ok());
  }
  stop.store(true);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(read_errors.load(), 0);

  // Drained, the accounting must balance: nothing acked was lost.
  ASSERT_TRUE(db->Flush().ok());
  const DbStats stats = db->GetStats();
  EXPECT_EQ(stats.memtable_entries, 0u);
  EXPECT_EQ(stats.total_disk_entries, 25000u);

  // The drained tree satisfies the policy's structural invariant (as in
  // DbTest.StructuralInvariants): leveling keeps one run per level (the
  // default single compaction thread never splits a merge), tiering fewer
  // than T runs, and lazy leveling fewer than T above one largest run.
  const auto trigger = static_cast<uint64_t>(options.size_ratio);
  EXPECT_GE(stats.deepest_level, 2);
  for (size_t level = 0; level < stats.runs_per_level.size(); level++) {
    const uint64_t runs = stats.runs_per_level[level];
    const bool largest = static_cast<int>(level) + 1 == stats.deepest_level;
    switch (GetParam()) {
      case MergePolicy::kLeveling:
        EXPECT_LE(runs, 1u) << "level " << level + 1;
        break;
      case MergePolicy::kTiering:
        EXPECT_LT(runs, trigger) << "level " << level + 1;
        break;
      case MergePolicy::kLazyLeveling:
        if (largest) {
          EXPECT_EQ(runs, 1u) << "largest level " << level + 1;
        } else {
          EXPECT_LT(runs, trigger) << "level " << level + 1;
        }
        break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, BackgroundChurn,
    ::testing::Values(MergePolicy::kLeveling, MergePolicy::kTiering,
                      MergePolicy::kLazyLeveling),
    [](const ::testing::TestParamInfo<MergePolicy>& info) {
      switch (info.param) {
        case MergePolicy::kLeveling:
          return "Leveling";
        case MergePolicy::kTiering:
          return "Tiering";
        case MergePolicy::kLazyLeveling:
          return "LazyLeveling";
      }
      return "Unknown";
    });

TEST(Concurrency, SnapshotReadersDuringChurn) {
  auto env = NewMemEnv();
  DbOptions options;
  options.env = env.get();
  options.buffer_size_bytes = 8 << 10;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  WriteOptions wo;
  for (int i = 0; i < 500; i++) {
    const std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(db->Put(wo, key, "gen0").ok());
  }
  const Snapshot* snap = db->GetSnapshot();

  std::atomic<int> errors{0};
  std::thread reader([&] {
    ReadOptions ro;
    ro.snapshot = snap;
    Random rng(9);
    std::string value;
    for (int i = 0; i < 3000; i++) {
      const std::string key = "k" + std::to_string(rng.Uniform(500));
      Status s = db->Get(ro, key, &value);
      if (!s.ok() || value != "gen0") errors.fetch_add(1);
    }
  });
  for (int gen = 1; gen <= 10; gen++) {
    for (int i = 0; i < 500; i++) {
      const std::string key = "k" + std::to_string(i);
      const std::string val = "gen" + std::to_string(gen);
      ASSERT_TRUE(db->Put(wo, key,
                          val)
                      .ok());
    }
  }
  reader.join();
  EXPECT_EQ(errors.load(), 0);
  db->ReleaseSnapshot(snap);
}

}  // namespace
}  // namespace monkeydb
