// Group-commit semantics: a sync writer must never be acknowledged before
// its batch is durable, grouped batches keep per-batch atomicity, failed
// group members must not report success, merged WAL records must replay
// every member's batch on recovery in the order the leader applied them,
// and a multi-member group applies every member's batch. The concurrent
// tests are also exercised under TSan/ASan/UBSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "io/env.h"
#include "io/fault_env.h"
#include "lsm/db.h"

namespace monkeydb {
namespace {

class GroupCommitTest : public ::testing::Test {
 protected:
  GroupCommitTest() : base_env_(NewMemEnv()), env_(base_env_.get()) {}

  DbOptions MakeOptions() {
    DbOptions options;
    options.env = &env_;
    return options;
  }

  std::unique_ptr<Env> base_env_;
  FaultInjectionEnv env_;
  ReadOptions ro_;
};

// A sync Put issues (at least) WAL header append, payload append, fsync.
// Failing the fsync must fail the Put: the writer was never durable, so
// acknowledging it would violate the sync contract. The entry must also
// not become visible in this process.
TEST_F(GroupCommitTest, SyncWriterNotAckedBeforeDurable) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(MakeOptions(), "/db", &db).ok());

  WriteOptions sync_wo;
  sync_wo.sync = true;
  // Ops 1-2 (the two WAL appends) succeed; op 3 (the Sync) fails.
  env_.ScheduleWriteFault(2);
  Status s = db->Put(sync_wo, "durable?", "no");
  EXPECT_TRUE(s.IsIoError()) << s.ToString();

  std::string value;
  EXPECT_TRUE(db->Get(ro_, "durable?", &value).IsNotFound());

  // Once the device recovers, the commit path is usable again.
  env_.ResetFaults();
  ASSERT_TRUE(db->Put(sync_wo, "after", "v").ok());
  ASSERT_TRUE(db->Get(ro_, "after", &value).ok());
  EXPECT_EQ(value, "v");
}

// Under a mid-run WAL failure with many concurrent writers, every Put that
// returned ok() must be readable and every Put that failed must not be:
// a follower whose batch was not applied must never see success, and a
// leader must not apply batches whose WAL record did not land.
TEST_F(GroupCommitTest, FailedGroupMembersSeeTheError) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(MakeOptions(), "/db", &db).ok());

  constexpr int kThreads = 8;
  constexpr int kWritesPerThread = 200;
  // Each thread records how far it got before the injected failure.
  std::vector<int> acked(kThreads, 0);
  std::atomic<int> failures{0};

  env_.ScheduleWriteFault(400);
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; t++) {
    writers.emplace_back([&, t] {
      WriteOptions wo;
      for (int i = 0; i < kWritesPerThread; i++) {
        const std::string key =
            "t" + std::to_string(t) + "_" + std::to_string(i);
        if (!db->Put(wo, key, "v").ok()) {
          failures.fetch_add(1);
          break;
        }
        acked[t] = i + 1;
      }
    });
  }
  for (auto& w : writers) w.join();
  env_.ResetFaults();
  EXPECT_GT(failures.load(), 0) << "fault never surfaced";

  std::string value;
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < acked[t]; i++) {
      const std::string key =
          "t" + std::to_string(t) + "_" + std::to_string(i);
      EXPECT_TRUE(db->Get(ro_, key, &value).ok())
          << "acked write missing: " << key;
    }
    // The first unacked write (if the thread failed) was reported as an
    // error and must not have been applied.
    if (acked[t] < kWritesPerThread) {
      const std::string key =
          "t" + std::to_string(t) + "_" + std::to_string(acked[t]);
      EXPECT_TRUE(db->Get(ro_, key, &value).IsNotFound())
          << "failed write visible: " << key;
    }
  }
}

// Concurrent multi-op batches grouped into shared WAL records must stay
// atomic: a snapshot reader either sees all four slots of a generation or
// none of it mixed. Also checks the final state, which would be corrupted
// if two batches ever received overlapping sequence numbers.
TEST_F(GroupCommitTest, InterleavedBatchesStayAtomic) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(MakeOptions(), "/db", &db).ok());

  constexpr int kThreads = 4;
  constexpr int kSlots = 4;
  constexpr int kGenerations = 120;

  std::atomic<bool> stop{false};
  std::atomic<int> atomicity_violations{0};
  std::atomic<int> write_errors{0};

  // Seed generation 0 so readers always find the slots.
  for (int t = 0; t < kThreads; t++) {
    WriteBatch batch;
    for (int k = 0; k < kSlots; k++) {
      const std::string key =
          "t" + std::to_string(t) + "_slot" + std::to_string(k);
      batch.Put(key, "0");
    }
    ASSERT_TRUE(db->Write(WriteOptions(), batch).ok());
  }

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; t++) {
    workers.emplace_back([&, t] {
      WriteOptions wo;
      for (int gen = 1; gen <= kGenerations; gen++) {
        WriteBatch batch;
        for (int k = 0; k < kSlots; k++) {
          const std::string key =
              "t" + std::to_string(t) + "_slot" + std::to_string(k);
          const std::string val = std::to_string(gen);
          batch.Put(key, val);
        }
        if (!db->Write(wo, batch).ok()) {
          write_errors.fetch_add(1);
          return;
        }
      }
    });
  }
  // Two snapshot readers checking all-or-nothing visibility per batch.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; r++) {
    readers.emplace_back([&, r] {
      while (!stop.load(std::memory_order_acquire)) {
        const int t = r % kThreads;
        const Snapshot* snap = db->GetSnapshot();
        ReadOptions snap_ro;
        snap_ro.snapshot = snap;
        std::string first, value;
        bool ok = true;
        for (int k = 0; k < kSlots && ok; k++) {
          const std::string key =
              "t" + std::to_string(t) + "_slot" + std::to_string(k);
          ok = db->Get(snap_ro, key, &value).ok();
          if (k == 0) first = value;
          if (ok && value != first) atomicity_violations.fetch_add(1);
        }
        if (!ok) atomicity_violations.fetch_add(1);
        db->ReleaseSnapshot(snap);
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_EQ(write_errors.load(), 0);
  EXPECT_EQ(atomicity_violations.load(), 0);
  std::string value;
  for (int t = 0; t < kThreads; t++) {
    for (int k = 0; k < kSlots; k++) {
      const std::string key =
          "t" + std::to_string(t) + "_slot" + std::to_string(k);
      ASSERT_TRUE(db->Get(ro_, key, &value).ok());
      EXPECT_EQ(value, std::to_string(kGenerations));
    }
  }
}

// Merged group records in the WAL must replay every member batch with the
// right contents after a crash, and writes acknowledged as sync must be
// there. Mixed sync and non-sync writers share groups.
TEST_F(GroupCommitTest, GroupedRecordsSurviveReopen) {
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(MakeOptions(), "/db", &db).ok());
    constexpr int kThreads = 6;
    constexpr int kWritesPerThread = 150;
    std::atomic<int> write_errors{0};
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; t++) {
      writers.emplace_back([&, t] {
        WriteOptions wo;
        wo.sync = (t % 2 == 0);  // Mix sync and non-sync group members.
        for (int i = 0; i < kWritesPerThread; i++) {
          WriteBatch batch;
          const std::string key =
              "t" + std::to_string(t) + "_" + std::to_string(i);
          const std::string val = "v" + std::to_string(i);
          batch.Put(key, val);
          const std::string dup_key = "t" + std::to_string(t) + "_dup";
          const std::string dup_val = std::to_string(i);
          batch.Put(dup_key, dup_val);
          if (!db->Write(wo, batch).ok()) {
            write_errors.fetch_add(1);
            return;
          }
        }
      });
    }
    for (auto& w : writers) w.join();
    ASSERT_EQ(write_errors.load(), 0);
    db.reset();  // "Crash": memtable contents only exist in the WAL.
  }

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(MakeOptions(), "/db", &db).ok());
  std::string value;
  for (int t = 0; t < 6; t++) {
    for (int i = 0; i < 150; i++) {
      const std::string key =
          "t" + std::to_string(t) + "_" + std::to_string(i);
      ASSERT_TRUE(db->Get(ro_, key, &value).ok()) << "t" << t << " i" << i;
      EXPECT_EQ(value, "v" + std::to_string(i));
    }
    const std::string dup_key = "t" + std::to_string(t) + "_dup";
    ASSERT_TRUE(db->Get(ro_, dup_key, &value).ok());
    EXPECT_EQ(value, "149");  // Last write per thread wins.
  }
}

// The group byte cap bounds how much one leader commits at once; huge
// batches still go through (a group always admits its first member).
TEST_F(GroupCommitTest, ByteCapAdmitsOversizedSingleton) {
  DbOptions options = MakeOptions();
  options.max_write_group_bytes = 256;  // Tiny cap.
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());

  WriteBatch big;
  for (int i = 0; i < 100; i++) {
    const std::string key = "big" + std::to_string(i);
    const std::string val(64, 'x');
    big.Put(key, val);
  }
  ASSERT_TRUE(db->Write(WriteOptions(), big).ok());

  // Concurrent small writers under the tiny cap still all commit.
  std::vector<std::thread> writers;
  std::atomic<int> write_errors{0};
  for (int t = 0; t < 4; t++) {
    writers.emplace_back([&, t] {
      WriteOptions wo;
      for (int i = 0; i < 100; i++) {
        const std::string key =
            "s" + std::to_string(t) + "_" + std::to_string(i);
        if (!db->Put(wo, key, "v").ok()) {
          write_errors.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(write_errors.load(), 0);

  std::string value;
  ASSERT_TRUE(db->Get(ro_, "big99", &value).ok());
  for (int t = 0; t < 4; t++) {
    const std::string key = "s" + std::to_string(t) + "_99";
    ASSERT_TRUE(db->Get(ro_, key, &value).ok());
  }
}

// Concurrent writers must actually coalesce into multi-member groups, and
// the leader must apply every member's batch. Group formation is
// timing-dependent (a group only forms when writers queue behind a leader),
// so on a loaded machine one round may serialize entirely: the round is
// repeated — idempotent, same keys and values — until some group held more
// than one batch.
TEST_F(GroupCommitTest, MultiMemberGroupsApplyEveryBatch) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(MakeOptions(), "/db", &db).ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 400;
  auto key_of = [](int t, int i) {
    return "t" + std::to_string(t) + "_" + std::to_string(i);
  };
  uint64_t rounds = 0;
  std::atomic<int> write_errors{0};
  for (int attempt = 0; attempt < 50; attempt++) {
    rounds++;
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; t++) {
      writers.emplace_back([&, t] {
        WriteOptions wo;
        for (int i = 0; i < kPerThread; i++) {
          const std::string key = key_of(t, i);
          const std::string val = "v" + std::to_string(t * kPerThread + i);
          const std::string shared_key = "shared_" + key;
          WriteBatch batch;
          batch.Put(key, val);
          batch.Put(shared_key, "s");
          if (!db->Write(wo, batch).ok()) write_errors.fetch_add(1);
        }
      });
    }
    for (auto& w : writers) w.join();
    const DbStats stats = db->GetStats();
    if (stats.write_group_batches > stats.write_groups) break;
  }
  ASSERT_EQ(write_errors.load(), 0);

  std::string value;
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < kPerThread; i++) {
      const std::string key = key_of(t, i);
      const std::string shared_key = "shared_" + key;
      ASSERT_TRUE(db->Get(ro_, key, &value).ok()) << "missing " << key;
      EXPECT_EQ(value, "v" + std::to_string(t * kPerThread + i));
      ASSERT_TRUE(db->Get(ro_, shared_key, &value).ok());
      EXPECT_EQ(value, "s");
    }
  }

  const DbStats stats = db->GetStats();
  EXPECT_EQ(stats.writes, rounds * kThreads * kPerThread);
  EXPECT_EQ(stats.write_group_batches, stats.writes);
  EXPECT_GT(stats.write_group_batches, stats.write_groups);
}

// An uncontended writer always leads a group of one; an empty batch is
// acknowledged without forming a group at all.
TEST_F(GroupCommitTest, SerialWritesAreSingletonGroups) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(MakeOptions(), "/db", &db).ok());
  WriteOptions wo;
  for (int i = 0; i < 100; i++) {
    const std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(db->Put(wo, key, "v").ok());
  }
  for (int i = 0; i < 10; i++) {
    WriteBatch batch;
    const std::string key = "k" + std::to_string(i);
    batch.Delete(key);
    const std::string other = "b" + std::to_string(i);
    batch.Put(other, "v");
    ASSERT_TRUE(db->Write(wo, batch).ok());
  }
  ASSERT_TRUE(db->Write(wo, WriteBatch()).ok());

  const DbStats stats = db->GetStats();
  EXPECT_EQ(stats.writes, 110u);
  EXPECT_EQ(stats.write_groups, 110u);
  EXPECT_EQ(stats.write_group_batches, 110u);
  std::string value;
  EXPECT_TRUE(db->Get(ro_, "k0", &value).IsNotFound());
  ASSERT_TRUE(db->Get(ro_, "k10", &value).ok());
  ASSERT_TRUE(db->Get(ro_, "b9", &value).ok());
}

// Writers racing on the same keys: whatever version the live DB resolves
// to must be the version recovered from the WAL, i.e. replay applies the
// grouped records in the order the leader applied them.
TEST_F(GroupCommitTest, ReplayKeepsGroupApplyOrder) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 300;
  constexpr int kKeys = 8;
  std::vector<std::string> live(kKeys);
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(MakeOptions(), "/db", &db).ok());
    std::atomic<int> write_errors{0};
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; t++) {
      writers.emplace_back([&, t] {
        WriteOptions wo;
        for (int i = 0; i < kPerThread; i++) {
          const std::string key = "hot" + std::to_string(i % kKeys);
          const std::string val =
              "t" + std::to_string(t) + "_" + std::to_string(i);
          if (!db->Put(wo, key, val).ok()) write_errors.fetch_add(1);
        }
      });
    }
    for (auto& w : writers) w.join();
    ASSERT_EQ(write_errors.load(), 0);
    for (int k = 0; k < kKeys; k++) {
      const std::string key = "hot" + std::to_string(k);
      ASSERT_TRUE(db->Get(ro_, key, &live[k]).ok()) << key;
    }
  }

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(MakeOptions(), "/db", &db).ok());
  std::string value;
  for (int k = 0; k < kKeys; k++) {
    const std::string key = "hot" + std::to_string(k);
    ASSERT_TRUE(db->Get(ro_, key, &value).ok()) << key;
    EXPECT_EQ(value, live[k]) << key;
  }
}

// --- Concurrent writers sharing the serial group-commit path ---

std::string FuzzKey(int t, int i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "k%02d_%06d", t, i);
  return buf;
}

// Writers overwrite the SAME slots with whole-batch generations; sequence
// numbers assigned across groups must stay contiguous and per-batch
// atomic: a snapshot taken at any moment sees either all ops of a batch or
// none, even when several writers' batches land in one group.
TEST(ConcurrentWritePath, BatchesStayAtomicUnderSnapshots) {
  auto env = NewMemEnv();
  DbOptions options;
  options.env = env.get();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());

  constexpr int kSlots = 4;
  constexpr int kGenerations = 300;
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const Snapshot* snap = db->GetSnapshot();
      ReadOptions snap_ro;
      snap_ro.snapshot = snap;
      std::string first;
      if (db->Get(snap_ro, "slot_0", &first).ok()) {
        for (int s = 1; s < kSlots; s++) {
          std::string v;
          const std::string key = "slot_" + std::to_string(s);
          ASSERT_TRUE(db->Get(snap_ro, key, &v).ok());
          ASSERT_EQ(v, first) << "torn batch at slot " << s;
        }
      }
      db->ReleaseSnapshot(snap);
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < 4; t++) {
    writers.emplace_back([&, t] {
      WriteOptions wo;
      for (int g = 0; g < kGenerations; g++) {
        WriteBatch batch;
        const std::string gen =
            "g" + std::to_string(t) + "_" + std::to_string(g);
        for (int s = 0; s < kSlots; s++) {
          const std::string key = "slot_" + std::to_string(s);
          batch.Put(key, gen);
        }
        ASSERT_TRUE(db->Write(wo, batch).ok());
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  // Final state: one complete generation.
  ReadOptions ro;
  std::string first;
  ASSERT_TRUE(db->Get(ro, "slot_0", &first).ok());
  for (int s = 1; s < kSlots; s++) {
    std::string v;
    const std::string key = "slot_" + std::to_string(s);
    ASSERT_TRUE(db->Get(ro, key, &v).ok());
    EXPECT_EQ(v, first);
  }
}

// Recovery: entries written by parallel writers, coalesced into groups
// (one WAL record per group), replay into a fresh memtable on reopen.
TEST(ConcurrentWritePath, RecoversFromWalAfterParallelWrites) {
  auto env = NewMemEnv();
  DbOptions options;
  options.env = env.get();
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; t++) {
      threads.emplace_back([&, t] {
        WriteOptions wo;
        for (int i = 0; i < 200; i++) {
          const std::string key = FuzzKey(t, i);
          const std::string val = "r" + std::to_string(i);
          ASSERT_TRUE(db->Put(wo, key, val).ok());
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  ReadOptions ro;
  std::string value;
  for (int t = 0; t < 4; t++) {
    for (int i = 0; i < 200; i++) {
      const std::string key = FuzzKey(t, i);
      ASSERT_TRUE(db->Get(ro, key, &value).ok()) << "lost after reopen: "
                                                 << key;
      EXPECT_EQ(value, "r" + std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace monkeydb
