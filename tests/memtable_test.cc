// SkipList and MemTable tests, including a randomized cross-check against
// std::map and the single-writer / many-reader publication contract the
// engine's group-commit leaders rely on.

#include "memtable/memtable.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <iterator>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "memtable/skiplist.h"
#include "util/random.h"

namespace monkeydb {
namespace {

struct IntPtrCmp {
  int operator()(const char* a, const char* b) const {
    const int ia = *reinterpret_cast<const int*>(a);
    const int ib = *reinterpret_cast<const int*>(b);
    return (ia < ib) ? -1 : (ia > ib) ? 1 : 0;
  }
};

TEST(SkipList, InsertContainsIterate) {
  Arena arena;
  SkipList<const char*, IntPtrCmp> list(IntPtrCmp{}, &arena);

  std::vector<int> keys = {5, 1, 9, 3, 7, 2, 8, 0, 6, 4};
  std::vector<std::unique_ptr<int>> storage;
  for (int k : keys) {
    storage.push_back(std::make_unique<int>(k));
    list.Insert(reinterpret_cast<const char*>(storage.back().get()));
  }
  for (int k : keys) {
    int probe = k;
    EXPECT_TRUE(list.Contains(reinterpret_cast<const char*>(&probe)));
  }
  int absent = 42;
  EXPECT_FALSE(list.Contains(reinterpret_cast<const char*>(&absent)));

  // In-order iteration.
  SkipList<const char*, IntPtrCmp>::Iterator it(&list);
  int expected = 0;
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    EXPECT_EQ(*reinterpret_cast<const int*>(it.key()), expected++);
  }
  EXPECT_EQ(expected, 10);

  // Seek.
  int target = 6;
  it.Seek(reinterpret_cast<const char*>(&target));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(*reinterpret_cast<const int*>(it.key()), 6);

  // SeekToLast and Prev.
  it.SeekToLast();
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(*reinterpret_cast<const int*>(it.key()), 9);
  it.Prev();
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(*reinterpret_cast<const int*>(it.key()), 8);
}

// One writer inserts a known permutation while readers iterate: every
// pass must be strictly sorted and must contain every key whose insert was
// published before the pass began (release/acquire node links).
TEST(SkipList, ConcurrentReadersSeePublishedKeys) {
  constexpr int kKeys = 20000;
  Arena arena;
  SkipList<const char*, IntPtrCmp> list(IntPtrCmp{}, &arena);

  std::vector<int> order(kKeys);
  for (int i = 0; i < kKeys; i++) order[i] = i;
  Random rng(7);
  for (int i = kKeys - 1; i > 0; i--) {
    std::swap(order[i], order[rng.Uniform(i + 1)]);
  }
  std::atomic<int> published{0};

  auto reader = [&] {
    int passes = 0;
    while (published.load(std::memory_order_acquire) < kKeys || passes < 2) {
      const int before = published.load(std::memory_order_acquire);
      std::vector<bool> seen(kKeys, false);
      SkipList<const char*, IntPtrCmp>::Iterator it(&list);
      int prev = -1;
      for (it.SeekToFirst(); it.Valid(); it.Next()) {
        const int k = *reinterpret_cast<const int*>(it.key());
        ASSERT_GT(k, prev);
        ASSERT_LT(k, kKeys);
        seen[k] = true;
        prev = k;
      }
      for (int j = 0; j < before; j++) {
        ASSERT_TRUE(seen[order[j]]) << "published key " << order[j]
                                    << " missing from a later pass";
      }
      passes++;
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; r++) readers.emplace_back(reader);

  for (int j = 0; j < kKeys; j++) {
    list.Insert(reinterpret_cast<const char*>(&order[j]));
    published.store(j + 1, std::memory_order_release);
  }
  for (auto& r : readers) r.join();

  SkipList<const char*, IntPtrCmp>::Iterator it(&list);
  int expected = 0;
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    EXPECT_EQ(*reinterpret_cast<const int*>(it.key()), expected++);
  }
  EXPECT_EQ(expected, kKeys);
}

class MemTableTest : public ::testing::Test {
 protected:
  MemTableTest()
      : comparator_(BytewiseComparator()), mem_(comparator_) {}

  Status Get(const std::string& key, std::string* value, bool* found) {
    LookupKey lookup(key, kMaxSequenceNumber);
    return mem_.Get(lookup, value, found);
  }

  InternalKeyComparator comparator_;
  MemTable mem_;
};

TEST_F(MemTableTest, AddGet) {
  mem_.Add(1, ValueType::kValue, "apple", "red");
  mem_.Add(2, ValueType::kValue, "banana", "yellow");

  std::string value;
  bool found;
  ASSERT_TRUE(Get("apple", &value, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(value, "red");

  EXPECT_TRUE(Get("cherry", &value, &found).IsNotFound());
  EXPECT_FALSE(found);
}

TEST_F(MemTableTest, NewestVersionWins) {
  mem_.Add(1, ValueType::kValue, "k", "v1");
  mem_.Add(5, ValueType::kValue, "k", "v5");
  mem_.Add(3, ValueType::kValue, "k", "v3");

  std::string value;
  bool found;
  ASSERT_TRUE(Get("k", &value, &found).ok());
  EXPECT_EQ(value, "v5");
}

TEST_F(MemTableTest, TombstoneHidesValue) {
  mem_.Add(1, ValueType::kValue, "k", "v");
  mem_.Add(2, ValueType::kDeletion, "k", "");
  std::string value;
  bool found;
  Status s = Get("k", &value, &found);
  EXPECT_TRUE(found);  // The tombstone is an entry...
  EXPECT_TRUE(s.IsNotFound());  // ...but the key reads as absent.
}

TEST_F(MemTableTest, SnapshotVisibility) {
  mem_.Add(10, ValueType::kValue, "k", "new");
  // A lookup at sequence 5 must not see the sequence-10 write.
  LookupKey old_lookup("k", 5);
  std::string value;
  bool found;
  Status s = mem_.Get(old_lookup, &value, &found);
  EXPECT_FALSE(found);
  EXPECT_TRUE(s.IsNotFound());
}

TEST_F(MemTableTest, IteratorYieldsInternalOrder) {
  mem_.Add(1, ValueType::kValue, "b", "1");
  mem_.Add(2, ValueType::kValue, "a", "2");
  mem_.Add(3, ValueType::kValue, "b", "3");  // Newer "b".

  auto iter = mem_.NewIterator();
  std::vector<std::pair<std::string, uint64_t>> seen;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    ParsedInternalKey parsed;
    ASSERT_TRUE(ParseInternalKey(iter->key(), &parsed));
    seen.push_back({parsed.user_key.ToString(), parsed.sequence});
  }
  // "a" first; then "b" newest-first (seq 3 before seq 1).
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<std::string, uint64_t>{"a", 2}));
  EXPECT_EQ(seen[1], (std::pair<std::string, uint64_t>{"b", 3}));
  EXPECT_EQ(seen[2], (std::pair<std::string, uint64_t>{"b", 1}));
}

TEST_F(MemTableTest, MemoryUsageGrows) {
  const size_t before = mem_.ApproximateMemoryUsage();
  for (int i = 0; i < 1000; i++) {
    const std::string key = "key" + std::to_string(i);
    const std::string payload = std::string(100, 'v');
    mem_.Add(i + 1, ValueType::kValue, key,
             payload);
  }
  EXPECT_GT(mem_.ApproximateMemoryUsage(), before + 100 * 1000);
  EXPECT_EQ(mem_.num_entries(), 1000u);
}

// Values far larger than an arena block (and than the block / 4 threshold
// that gives an allocation its own block) round-trip through Get and the
// iterator, interleaved with small entries that keep filling the current
// block.
TEST_F(MemTableTest, OversizedValuesRoundTrip) {
  const size_t sizes[] = {1, 1500, 4096, 10 << 10, 100 << 10, 3};
  std::map<std::string, std::string> model;
  size_t total = 0;
  SequenceNumber seq = 0;
  for (size_t i = 0; i < std::size(sizes); i++) {
    const std::string key = "big" + std::to_string(i);
    const std::string value(sizes[i], static_cast<char>('a' + i));
    mem_.Add(++seq, ValueType::kValue, key, value);
    model[key] = value;
    total += value.size();
    const std::string small_key = "small" + std::to_string(i);
    const std::string small_value = "s" + std::to_string(i);
    mem_.Add(++seq, ValueType::kValue, small_key, small_value);
    model[small_key] = small_value;
  }
  EXPECT_GE(mem_.ApproximateMemoryUsage(), total);
  EXPECT_EQ(mem_.num_entries(), model.size());

  for (const auto& [key, expected] : model) {
    std::string value;
    bool found = false;
    ASSERT_TRUE(Get(key, &value, &found).ok()) << key;
    EXPECT_TRUE(found);
    EXPECT_EQ(value, expected) << key;
  }

  auto iter = mem_.NewIterator();
  auto m = model.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++m) {
    ASSERT_NE(m, model.end());
    ParsedInternalKey parsed;
    ASSERT_TRUE(ParseInternalKey(iter->key(), &parsed));
    EXPECT_EQ(parsed.user_key.ToString(), m->first);
    EXPECT_EQ(iter->value().ToString(), m->second);
  }
  EXPECT_EQ(m, model.end());
}

TEST_F(MemTableTest, RandomizedAgainstStdMap) {
  Random rng(2024);
  std::map<std::string, std::pair<uint64_t, std::string>> model;  // key -> (seq, value)
  SequenceNumber seq = 0;
  for (int i = 0; i < 5000; i++) {
    const std::string key = "k" + std::to_string(rng.Uniform(500));
    seq++;
    if (rng.Bernoulli(0.8)) {
      const std::string value = "v" + std::to_string(rng.Next() % 1000);
      mem_.Add(seq, ValueType::kValue, key, value);
      model[key] = {seq, value};
    } else {
      mem_.Add(seq, ValueType::kDeletion, key, "");
      model[key] = {seq, ""};  // Empty marks deletion in the model.
    }
  }
  for (int i = 0; i < 500; i++) {
    const std::string key = "k" + std::to_string(i);
    std::string value;
    bool found;
    Status s = Get(key, &value, &found);
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_FALSE(found) << key;
    } else if (it->second.second.empty()) {
      EXPECT_TRUE(found) << key;
      EXPECT_TRUE(s.IsNotFound()) << key;
    } else {
      EXPECT_TRUE(found) << key;
      ASSERT_TRUE(s.ok()) << key;
      EXPECT_EQ(value, it->second.second) << key;
    }
  }
}

std::string FuzzKey(int t, int i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "k%02d_%06d", t, i);
  return buf;
}

// N threads insert disjoint keys, serialized by a mutex as the engine
// serializes its group-commit leaders, so consecutive inserts often come
// from different threads. A reader thread probes the table without the
// mutex the whole time. Afterwards every entry must be present, the
// iteration order strictly sorted, and num_entries/ApproximateMemoryUsage
// consistent with what was inserted.
TEST(ConcurrentMemTable, MultiThreadedInsertFuzz) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  InternalKeyComparator cmp(BytewiseComparator());
  MemTable mem(cmp);

  std::mutex writer_mu;
  uint64_t next_seq = 1;  // Guarded by writer_mu.
  std::atomic<bool> done{false};

  // Invariant checker: both counters must be monotone while writers run
  // (relaxed atomics, no tearing) and Get must never crash mid-insert.
  std::thread checker([&] {
    uint64_t last_entries = 0;
    size_t last_usage = 0;
    const std::string key = FuzzKey(0, 0);
    while (!done.load(std::memory_order_acquire)) {
      const uint64_t entries = mem.num_entries();
      const size_t usage = mem.ApproximateMemoryUsage();
      EXPECT_GE(entries, last_entries);
      EXPECT_GE(usage, last_usage);
      last_entries = entries;
      last_usage = usage;
      std::string value;
      bool found = false;
      LookupKey lookup(key, kMaxSequenceNumber);
      Status s = mem.Get(lookup, &value, &found);
      if (found) {
        EXPECT_TRUE(s.ok()) << s.ToString();
        EXPECT_EQ(value, "v0_0");
      }
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; t++) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        const std::string key = FuzzKey(t, i);
        const std::string val =
            "v" + std::to_string(t) + "_" + std::to_string(i);
        std::lock_guard<std::mutex> lock(writer_mu);
        if (i % 97 == 13) {
          mem.Add(next_seq++, ValueType::kDeletion, key, "");
        } else {
          mem.Add(next_seq++, ValueType::kValue, key, val);
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  done.store(true, std::memory_order_release);
  checker.join();

  EXPECT_EQ(mem.num_entries(), static_cast<uint64_t>(kThreads) * kPerThread);

  // Every key resolves to its value (or tombstone) at the latest view.
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < kPerThread; i++) {
      std::string value;
      bool found = false;
      const std::string key = FuzzKey(t, i);
      LookupKey lookup(key, kMaxSequenceNumber);
      Status s = mem.Get(lookup, &value, &found);
      ASSERT_TRUE(found) << "missing " << key;
      if (i % 97 == 13) {
        EXPECT_TRUE(s.IsNotFound());
      } else {
        ASSERT_TRUE(s.ok()) << s.ToString();
        EXPECT_EQ(value, "v" + std::to_string(t) + "_" + std::to_string(i));
      }
    }
  }

  // Iteration: strictly sorted internal keys, exactly N entries.
  auto iter = mem.NewIterator();
  uint64_t count = 0;
  std::string prev_user_key;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    ParsedInternalKey parsed;
    ASSERT_TRUE(ParseInternalKey(iter->key(), &parsed));
    const std::string user_key = parsed.user_key.ToString();
    if (count > 0) {
      EXPECT_LT(prev_user_key, user_key);  // Disjoint keys: strict order.
    }
    prev_user_key = user_key;
    count++;
  }
  EXPECT_EQ(count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_GE(mem.ApproximateMemoryUsage(), count * 16);
}

}  // namespace
}  // namespace monkeydb
