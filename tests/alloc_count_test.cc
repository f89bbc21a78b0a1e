// Heap allocations on the point-lookup block path. This binary replaces the
// global operator new/delete with counting versions, fills a store on real
// files that is far larger than its block cache, warms up, and then counts
// the allocations and frees a stream of Gets makes per data-block read.
// Most of those reads miss the cache, so each one takes the whole miss
// path: cache lookup, page read, cache insert, eviction, block seek.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <vector>

#include "io/block_cache.h"
#include "io/env.h"
#include "lsm/db.h"
#include "obs/perf_context.h"
#include "util/random.h"

namespace {

// Only the measuring thread counts, and only while armed.
thread_local bool counting = false;
std::atomic<uint64_t> allocations{0};
std::atomic<uint64_t> frees{0};

void* CountedAlloc(size_t n) {
  if (counting) allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(size_t n, std::align_val_t align) {
  if (counting) allocations.fetch_add(1, std::memory_order_relaxed);
  const size_t a = static_cast<size_t>(align);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

void CountedFree(void* p) {
  if (p == nullptr) return;
  if (counting) frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(size_t n) { return CountedAlloc(n); }
void* operator new[](size_t n) { return CountedAlloc(n); }
void* operator new(size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, a);
}
void* operator new[](size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, a);
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, size_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  CountedFree(p);
}

namespace monkeydb {
namespace {

constexpr int kEntries = 100000;  // ~13 MB of data blocks.

std::string KeyOf(int i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "user%012d", i);
  return buf;
}

TEST(AllocCount, AtMostTwoAllocationsPerBlockRead) {
  const std::string dir =
      std::filesystem::temp_directory_path() /
      ("monkeydb_alloc_count_test_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    BlockCache cache(256 << 10);  // ~2% of the data.
    DbOptions options;
    options.env = GetPosixEnv();
    options.block_cache = &cache;
    options.read_io_threads = 0;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, dir, &db).ok());
    WriteOptions wo;
    const std::string value(100, 'v');
    for (int i = 0; i < kEntries; i++) {
      const std::string key = KeyOf(i);
      ASSERT_TRUE(db->Put(wo, key, value).ok());
    }
    ASSERT_TRUE(db->Flush().ok());

    // Keys are made up front so the counted loop runs only Gets.
    constexpr int kWarmup = 2000;
    constexpr int kGets = 5000;
    Random rng(7);
    std::vector<std::string> keys;
    for (int i = 0; i < kWarmup + kGets; i++) {
      keys.push_back(KeyOf(static_cast<int>(rng.Uniform(kEntries))));
    }
    std::string got;
    got.reserve(256);
    for (int i = 0; i < kWarmup; i++) {
      ASSERT_TRUE(db->Get(ReadOptions(), keys[i], &got).ok());
    }

    SetPerfLevel(PerfLevel::kCounts);
    GetPerfContext()->Reset();
    const uint64_t misses_before = cache.misses();
    const uint64_t hits_before = cache.hits();
    const uint64_t allocations_before = allocations.load();
    const uint64_t frees_before = frees.load();
    int ok = 0;
    counting = true;
    for (int i = kWarmup; i < kWarmup + kGets; i++) {
      ok += db->Get(ReadOptions(), keys[i], &got).ok() ? 1 : 0;
    }
    counting = false;
    const uint64_t allocs = allocations.load() - allocations_before;
    const uint64_t freed = frees.load() - frees_before;
    const PerfContext* perf = GetPerfContext();
    const uint64_t block_reads =
        perf->blocks_read_from_disk + perf->blocks_read_from_cache;
    const uint64_t misses = cache.misses() - misses_before;
    const uint64_t hits = cache.hits() - hits_before;
    SetPerfLevel(PerfLevel::kDisabled);

    EXPECT_EQ(ok, kGets);
    ASSERT_GE(block_reads, static_cast<uint64_t>(kGets));
    EXPECT_GT(misses, 4 * hits) << "the store must dwarf the cache";
    const double allocs_per_read =
        static_cast<double>(allocs) / static_cast<double>(block_reads);
    const double frees_per_read =
        static_cast<double>(freed) / static_cast<double>(block_reads);
    std::printf(
        "block reads %llu (misses %llu, hits %llu): %.2f allocations and "
        "%.2f frees per block read\n",
        static_cast<unsigned long long>(block_reads),
        static_cast<unsigned long long>(misses),
        static_cast<unsigned long long>(hits), allocs_per_read,
        frees_per_read);
    EXPECT_LE(allocs_per_read, 2.0);
    EXPECT_LE(frees_per_read, 2.0);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace monkeydb
