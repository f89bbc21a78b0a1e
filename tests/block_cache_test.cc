#include "io/block_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace monkeydb {
namespace {

std::shared_ptr<const std::string> MakeBlock(size_t size, char fill) {
  return std::make_shared<const std::string>(size, fill);
}

// Mirrors BlockCache's internal hash so tests can pick keys that land in a
// chosen shard (there are 16 shards).
size_t ShardOf(const BlockCache::Key& k) {
  uint64_t h = k.file_id * 0x9E3779B97F4A7C15ULL;
  h ^= k.offset + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return static_cast<size_t>(h) % 16;
}

TEST(BlockCache, InsertLookup) {
  BlockCache cache(1 << 20);
  BlockCache::Key key{1, 0};
  EXPECT_EQ(cache.Lookup(key), nullptr);
  EXPECT_EQ(cache.misses(), 1u);

  cache.Insert(key, MakeBlock(100, 'a'));
  auto hit = cache.Lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 100u);
  EXPECT_EQ((*hit)[0], 'a');
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(BlockCache, ZeroCapacityDisables) {
  BlockCache cache(0);
  BlockCache::Key key{1, 0};
  cache.Insert(key, MakeBlock(10, 'a'));
  EXPECT_EQ(cache.Lookup(key), nullptr);
  EXPECT_EQ(cache.usage_bytes(), 0u);
}

TEST(BlockCache, ReplacesExistingEntry) {
  BlockCache cache(1 << 20);
  BlockCache::Key key{1, 0};
  cache.Insert(key, MakeBlock(100, 'a'));
  cache.Insert(key, MakeBlock(50, 'b'));
  auto hit = cache.Lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 50u);
  EXPECT_LE(cache.usage_bytes(), 50u + 10);
}

TEST(BlockCache, EvictsLruWithinShard) {
  // All keys with the same file_id and offsets chosen to land in one shard
  // is hard to arrange; instead use a small cache and many inserts, then
  // check usage stays bounded near capacity.
  BlockCache cache(16 * 1024);
  for (uint64_t i = 0; i < 1000; i++) {
    cache.Insert(BlockCache::Key{i, 0}, MakeBlock(512, 'x'));
  }
  // Per-shard capacity is 1 KB; a shard may briefly hold one oversized
  // entry, so allow slack.
  EXPECT_LE(cache.usage_bytes(), 16u * 1024 + 16 * 512);
}

TEST(BlockCache, LruKeepsRecentlyUsed) {
  // Single-entry-per-insert workload touching one key repeatedly: that key
  // should survive eviction pressure from other keys in other shards only
  // if its shard isn't overfull — touch it between inserts to keep it hot.
  BlockCache cache(4096 * 16);
  BlockCache::Key hot{42, 4096};
  cache.Insert(hot, MakeBlock(256, 'h'));
  for (uint64_t i = 0; i < 200; i++) {
    cache.Insert(BlockCache::Key{100 + i, 0}, MakeBlock(256, 'c'));
    ASSERT_NE(cache.Lookup(hot), nullptr) << "hot key evicted at i=" << i;
  }
}

// Regression: per-shard capacity must round up, not floor. With 1599 bytes
// over 16 shards, flooring gives each shard only 99 bytes, so two 50-byte
// blocks in the same shard (100 bytes) would evict one of them despite the
// total budget having room; the rounded-up allowance of 100 keeps both.
TEST(BlockCache, PerShardCapacityRoundsUp) {
  BlockCache cache(1599);
  const BlockCache::Key a{1, 0};
  BlockCache::Key b{1, 0};
  bool found = false;
  for (uint64_t off = 1; off < 100000 && !found; off++) {
    b = BlockCache::Key{1, off};
    found = (ShardOf(b) == ShardOf(a));
  }
  ASSERT_TRUE(found) << "no same-shard sibling key found";

  cache.Insert(a, MakeBlock(50, 'a'));
  cache.Insert(b, MakeBlock(50, 'b'));
  EXPECT_NE(cache.Lookup(a), nullptr) << "first block evicted by shard cap";
  EXPECT_NE(cache.Lookup(b), nullptr);
  EXPECT_EQ(cache.usage_bytes(), 100u);
}

// Capacities below the shard count must not zero every shard's allowance.
TEST(BlockCache, TinyCapacityStillCaches) {
  BlockCache cache(8);  // Fewer bytes than shards.
  BlockCache::Key key{3, 0};
  cache.Insert(key, MakeBlock(1, 'x'));
  EXPECT_NE(cache.Lookup(key), nullptr);
}

TEST(BlockCache, EraseFileDropsAllItsBlocks) {
  BlockCache cache(1 << 20);
  for (uint64_t off = 0; off < 10; off++) {
    cache.Insert(BlockCache::Key{7, off * 4096}, MakeBlock(100, 'a'));
    cache.Insert(BlockCache::Key{8, off * 4096}, MakeBlock(100, 'b'));
  }
  cache.EraseFile(7);
  for (uint64_t off = 0; off < 10; off++) {
    EXPECT_EQ(cache.Lookup(BlockCache::Key{7, off * 4096}), nullptr);
    EXPECT_NE(cache.Lookup(BlockCache::Key{8, off * 4096}), nullptr);
  }
}

TEST(BlockCache, SharedPtrOutlivesEviction) {
  BlockCache cache(8 * 1024);
  BlockCache::Key key{1, 0};
  cache.Insert(key, MakeBlock(512, 'z'));
  auto pinned = cache.Lookup(key);
  ASSERT_NE(pinned, nullptr);
  // Force heavy eviction.
  for (uint64_t i = 0; i < 500; i++) {
    cache.Insert(BlockCache::Key{i + 10, 0}, MakeBlock(512, 'x'));
  }
  // The pinned block data remains valid regardless of eviction.
  EXPECT_EQ((*pinned)[0], 'z');
}

// --- Recycled page buffers ---

// Reads a block the way TableReader does on a miss: Lookup with a Buffer,
// fill what it hands out, publish, insert.
std::shared_ptr<const std::string> ReadThrough(BlockCache* cache,
                                               const BlockCache::Key& key,
                                               size_t size, char fill) {
  BlockCache::Buffer buffer(size);
  if (auto hit = cache->Lookup(key, nullptr, &buffer)) return hit;
  buffer.str()->assign(size, fill);
  auto block = buffer.Publish();
  cache->Insert(key, block);
  return block;
}

TEST(BlockCache, MissHandsOutAPage) {
  BlockCache cache(1 << 20);
  BlockCache::Buffer buffer(4000);
  EXPECT_EQ(cache.Lookup({1, 0}, nullptr, &buffer), nullptr);
  EXPECT_GE(buffer.str()->capacity(), BlockCache::kPageBytes);
}

TEST(BlockCache, EvictedPageIsRecycledOnlyAfterItsLastReader) {
  BlockCache cache(1 << 20);
  const BlockCache::Key a{7, 0};
  auto block = ReadThrough(&cache, a, 4000, 'a');
  const char* page = block->data();

  // Evicted while a reader still holds it: the next miss in the shard gets
  // a different page.
  cache.EraseFile(7);
  BlockCache::Buffer other(4000);
  ASSERT_EQ(cache.Lookup(a, nullptr, &other), nullptr);
  EXPECT_NE(other.str()->data(), page);
  EXPECT_EQ(*block, std::string(4000, 'a'));

  // Once the last reader lets go, the page goes back to the shard's free
  // list and the next miss there reuses it.
  block.reset();
  BlockCache::Buffer buffer(4000);
  ASSERT_EQ(cache.Lookup(a, nullptr, &buffer), nullptr);
  EXPECT_EQ(buffer.str()->data(), page);
}

TEST(BlockCache, OversizedBlocksAreNeverPooled) {
  BlockCache cache(1 << 20);
  const size_t big = BlockCache::kPageBytes + 100;
  BlockCache::Buffer buffer(big);
  EXPECT_EQ(cache.Lookup({3, 0}, nullptr, &buffer), nullptr);
  EXPECT_LT(buffer.str()->capacity(), BlockCache::kPageBytes);
  buffer.str()->assign(big, 'o');
  auto block = buffer.Publish();
  cache.Insert({3, 0}, block);
  block.reset();
  cache.EraseFile(3);  // Frees the oversized block: it joins no free list.

  // The next miss gets a fresh page, not the oversized buffer.
  BlockCache::Buffer next(4000);
  ASSERT_EQ(cache.Lookup({3, 0}, nullptr, &next), nullptr);
  EXPECT_GE(next.str()->capacity(), BlockCache::kPageBytes);
  EXPECT_LT(next.str()->capacity(), big);

  auto hit = ReadThrough(&cache, {3, 8192}, big, 'p');
  EXPECT_EQ(cache.Lookup({3, 8192}), hit);
  EXPECT_EQ(*hit, std::string(big, 'p'));
}

TEST(BlockCache, ZeroCapacityHandsOutNoPage) {
  BlockCache cache(0);
  BlockCache::Buffer buffer(4000);
  EXPECT_EQ(cache.Lookup({1, 0}, nullptr, &buffer), nullptr);
  EXPECT_LT(buffer.str()->capacity(), BlockCache::kPageBytes);
  buffer.str()->assign(4000, 'z');
  auto block = buffer.Publish();
  cache.Insert({1, 0}, block);
  EXPECT_EQ(cache.Lookup({1, 0}), nullptr);
  EXPECT_EQ(cache.usage_bytes(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(*block, std::string(4000, 'z'));
}

// A published page outlives the cache that handed it out.
TEST(BlockCache, PageOutlivesCache) {
  std::shared_ptr<const std::string> block;
  {
    BlockCache cache(1 << 20);
    block = ReadThrough(&cache, {1, 0}, 4000, 'k');
  }
  EXPECT_EQ(*block, std::string(4000, 'k'));
}

// Readers pin blocks while other threads insert, evict and erase on a tiny
// cache, so pages are recycled constantly. Every block's bytes encode its
// key; a page recycled while still pinned would be overwritten with another
// key's bytes.
TEST(BlockCache, PinnedPagesNeverChangeUnderChurn) {
  BlockCache cache(16 * 4096 * 2);  // About two pages per shard.
  auto fill_of = [](const BlockCache::Key& k) {
    return static_cast<char>('a' + (k.file_id * 7 + k.offset / 4096) % 26);
  };
  std::atomic<int> corrupt{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&, t] {
      std::vector<std::pair<BlockCache::Key,
                            std::shared_ptr<const std::string>>>
          pinned;
      uint64_t x = 0x9E3779B97F4A7C15ULL * (t + 1);
      for (int i = 0; i < 20000; i++) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const BlockCache::Key key{x % 5, (x >> 8) % 64 * 4096};
        const size_t size = 2500 + (x >> 20) % 1500;
        const char fill = fill_of(key);
        auto block = ReadThrough(&cache, key, size, fill);
        if (block->empty() || block->front() != fill ||
            block->back() != fill) {
          corrupt++;
        }
        pinned.emplace_back(key, std::move(block));
        if (pinned.size() > 8) {
          // Re-check the oldest pin in full before dropping it.
          const auto& [k, b] = pinned.front();
          if (*b != std::string(b->size(), fill_of(k))) corrupt++;
          pinned.erase(pinned.begin());
        }
        if (t == 0 && i % 500 == 0) cache.EraseFile(x % 5);
      }
      for (const auto& [k, b] : pinned) {
        if (*b != std::string(b->size(), fill_of(k))) corrupt++;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(corrupt.load(), 0);
  EXPECT_LE(cache.usage_bytes(), 16u * 4096 * 2 + 16 * 4096);
}

}  // namespace
}  // namespace monkeydb
