// BlockCache: sharded LRU cache of data blocks keyed by (file id, offset).
//
// Mirrors LevelDB's block cache used in the paper's Appendix F experiment
// (Fig. 12): it caches whole data blocks, not key-value pairs, so even fully
// cached working sets pay block-granularity occupancy.
//
// The cache is scan-resistant. Each shard keeps its recency list in two
// segments, hot (front half) and cold (back half). Point-lookup blocks
// (InsertPriority::kHigh) enter at the hot front — the classic MRU
// position — while readahead and scan blocks (InsertPriority::kLow) enter
// at the cold front, i.e. the list midpoint. A long range scan therefore
// only churns the cold half and cannot flush the point-lookup working set;
// a scanned block earns its way into the hot segment only by being
// referenced again. When only kHigh inserts occur the two segments behave
// exactly like a single LRU list (demotion moves the hot tail to the cold
// head, preserving global recency order, and eviction takes the cold tail),
// so point-lookup-only workloads see byte-identical hit rates to the
// previous single-list design.
//
// A miss costs one small allocation and two shard-lock acquisitions: the
// missing Lookup hands the reader a recycled page buffer (see Buffer), the
// reader fills it, and Insert links it in with a recycled entry. LRU
// entries are intrusive (recency links and hash chain in one node) and
// recycled through a per-shard free list, the hash index is a fixed bucket
// array sized from the capacity, and evicted blocks are released only
// after the shard mutex is unlocked — so no allocation or free ever runs
// while a shard mutex is held. The single remaining allocation is the
// block's shared_ptr control block; its deleter returns the page to the
// free list once the last holder (cache or reader) drops it.

#ifndef MONKEYDB_IO_BLOCK_CACHE_H_
#define MONKEYDB_IO_BLOCK_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace monkeydb {

class BlockCache {
 private:
  // A bounded lock-free free list of heap objects: Push parks an object in
  // an empty slot (false when every slot is taken — the caller then frees
  // it), Pop takes any parked one. The release on Push and the acquire on
  // Pop order the previous owner's last use of the object before the next
  // owner's first.
  template <typename T>
  class FreeList {
   public:
    static constexpr int kSlots = 8;

    FreeList() = default;
    ~FreeList() {
      for (auto& slot : slots_) delete slot.load(std::memory_order_acquire);
    }

    FreeList(const FreeList&) = delete;
    FreeList& operator=(const FreeList&) = delete;

    T* Pop() {
      for (auto& slot : slots_) {
        if (slot.load(std::memory_order_relaxed) == nullptr) continue;
        T* p = slot.exchange(nullptr, std::memory_order_acquire);
        if (p != nullptr) return p;
      }
      return nullptr;
    }

    bool Push(T* p) {
      for (auto& slot : slots_) {
        T* expected = nullptr;
        if (slot.compare_exchange_strong(expected, p,
                                         std::memory_order_release,
                                         std::memory_order_relaxed)) {
          return true;
        }
      }
      return false;
    }

   private:
    std::atomic<T*> slots_[kSlots] = {};
  };

  // The deleter of a published page: returns it to its shard's free list.
  struct PageReturn;

 public:
  struct Key {
    uint64_t file_id;
    uint64_t offset;
    bool operator==(const Key& o) const {
      return file_id == o.file_id && offset == o.offset;
    }
  };

  // Where an insert enters the recency list. kHigh is the default MRU
  // insertion for demand-fetched blocks; kLow enters at the list midpoint
  // so speculative (readahead) and scan blocks age out without displacing
  // the hot working set.
  enum class InsertPriority { kHigh, kLow };

  // Capacity of a recycled page buffer: one 4 KiB disk page, which holds a
  // data block of a default-page table together with its trailer (the
  // table builder keeps payload + trailer within a page).
  static constexpr size_t kPageBytes = 4096;

  // Storage for one block read. Construct it with the raw read size
  // (payload + trailer) and pass it to Lookup: on a miss whose size is more
  // than half a page and at most a page, the Lookup hands it a recycled
  // page from the key's shard. Otherwise — oversized or small blocks, a
  // hit, no cache — str() is a plain string allocated to size, exactly as
  // an uncached read would use. An unpublished page goes back to its free
  // list when the Buffer is destroyed.
  class Buffer {
   public:
    explicit Buffer(size_t bytes) : bytes_(bytes) {}
    ~Buffer();

    Buffer(Buffer&&) = default;
    Buffer& operator=(Buffer&&) = delete;
    Buffer(const Buffer&) = delete;
    Buffer& operator=(const Buffer&) = delete;

    // The storage to read into.
    std::string* str() { return page_ != nullptr ? page_.get() : &own_; }

    // Hands the bytes over to the shared_ptr the cache and readers hold. A
    // page returns to its shard's free list when the last of them drops
    // it. The Buffer is spent afterwards.
    std::shared_ptr<const std::string> Publish();

   private:
    friend class BlockCache;
    size_t bytes_;
    std::unique_ptr<std::string> page_;  // A recycled page, if handed one.
    std::shared_ptr<FreeList<std::string>> pool_;  // Where page_ returns.
    std::string own_;
  };

  // capacity_bytes == 0 disables the cache (all lookups miss).
  explicit BlockCache(size_t capacity_bytes);
  ~BlockCache();

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  // Returns the cached block or nullptr. The returned shared_ptr keeps the
  // data alive even if the entry is evicted concurrently. A hit promotes
  // the entry to the hot front regardless of how it was inserted. When
  // was_prefetched is non-null it is set to true iff the hit consumed a
  // readahead block that had not been referenced yet (the same event the
  // prefetch_hits counter tracks). On a miss with miss_buffer non-null the
  // cache hands it a page to read the block into (see Buffer).
  std::shared_ptr<const std::string> Lookup(const Key& key,
                                            bool* was_prefetched = nullptr,
                                            Buffer* miss_buffer = nullptr);

  // Inserts (replacing any existing entry) and evicts LRU entries as needed.
  void Insert(const Key& key, std::shared_ptr<const std::string> block,
              InsertPriority priority = InsertPriority::kHigh);

  // True iff the key is currently cached. Unlike Lookup this neither
  // promotes the entry nor counts a hit/miss; the readahead scheduler uses
  // it to skip blocks that are already resident.
  bool Contains(const Key& key) const;

  // Drops every cached block for the given file (called when a run is
  // deleted after compaction).
  void EraseFile(uint64_t file_id);

  size_t capacity_bytes() const { return capacity_; }
  size_t usage_bytes() const;
  uint64_t hits() const;
  uint64_t misses() const;
  // Hits on blocks that were inserted at kLow priority and had not been
  // referenced yet — i.e. readahead that arrived before the reader did.
  uint64_t prefetch_hits() const;
  // Number of kLow-priority (readahead/scan) inserts.
  uint64_t scan_inserts() const;

  // Zeroes hits/misses/prefetch_hits/scan_inserts (cached blocks stay).
  // Used by DB::ResetStats for per-phase deltas; if the cache is shared
  // between DBs the counters reset for all of them.
  void ResetCounters();

 private:
  // One cached block. The same node sits in its shard's recency list
  // (prev/next) and hash chain (next_hash); once unlinked, next_hash
  // chains it into the list of entries to release after unlocking.
  struct Entry {
    Key key{0, 0};
    std::shared_ptr<const std::string> block;
    Entry* prev = this;  // A default Entry is an empty list's sentinel.
    Entry* next = this;
    Entry* next_hash = nullptr;
    bool hot = false;         // Which segment the entry currently sits in.
    bool prefetched = false;  // Inserted at kLow and not yet referenced.
  };

  struct KeyHash {
    size_t operator()(const Key& k) const {
      // Mix file id and offset; both are small so a multiply-xor is fine.
      uint64_t h = k.file_id * 0x9E3779B97F4A7C15ULL;
      h ^= k.offset + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };

  static constexpr int kNumShards = 16;

  struct Shard {
    mutable Mutex mu;
    // Recency order is the concatenation hot ++ cold: hot.next is the
    // shard MRU, cold.prev the next eviction victim. Both are sentinels of
    // circular lists.
    Entry hot GUARDED_BY(mu);
    Entry cold GUARDED_BY(mu);
    // Hash index: chains of Entry::next_hash. The bucket array is sized at
    // construction and never grows (chains absorb any overflow).
    std::unique_ptr<Entry*[]> buckets GUARDED_BY(mu);
    int bucket_bits = 0;
    size_t count GUARDED_BY(mu) = 0;      // Entries across both segments.
    size_t hot_count GUARDED_BY(mu) = 0;  // Entries in the hot segment.
    size_t usage GUARDED_BY(mu) = 0;      // Bytes across both segments.
    size_t hot_usage GUARDED_BY(mu) = 0;  // Bytes in the hot segment only.
    uint64_t hits GUARDED_BY(mu) = 0;
    uint64_t misses GUARDED_BY(mu) = 0;
    uint64_t prefetch_hits GUARDED_BY(mu) = 0;
    uint64_t scan_inserts GUARDED_BY(mu) = 0;
    // Unlinked entries kept for reuse; popped and pushed outside mu.
    FreeList<Entry> spare;
    // Page buffers kept for reuse. Shared with every published page
    // (through its deleter), so pages may outlive the cache.
    std::shared_ptr<FreeList<std::string>> pages =
        std::make_shared<FreeList<std::string>>();

    // The slot that points at key's entry, or the null slot ending its
    // chain.
    Entry** Find(const Key& key) const REQUIRES(mu);
  };

  static size_t ShardIndex(const Key& key) {
    return KeyHash()(key) % kNumShards;
  }

  // Unlinks e from the index and its recency segment and uncharges it.
  static void RemoveLocked(Shard* shard, Entry* e) REQUIRES(shard->mu);

  // Demotes hot-tail entries to the cold head until the hot segment fits
  // its budget (half the shard). Order-preserving (hot's tail is adjacent
  // to cold's head in the concatenated list), so for kHigh-only workloads
  // the cache behaves exactly like one LRU list.
  void DemoteLocked(Shard* shard) const REQUIRES(shard->mu);

  // Evicts from the cold tail (the hot tail once cold is empty) until the
  // shard fits, chaining the victims onto *victims. A shard may keep one
  // oversized entry rather than evict itself empty.
  void EvictLocked(Shard* shard, Entry** victims) const REQUIRES(shard->mu);

  // Releases the victims' blocks and recycles (or frees) their entries.
  // Called after the shard mutex is unlocked.
  static void Release(Shard* shard, Entry* victims);

  size_t capacity_;
  size_t per_shard_capacity_;
  size_t hot_capacity_;  // Per-shard budget for the hot segment.
  Shard shards_[kNumShards];
};

}  // namespace monkeydb

#endif  // MONKEYDB_IO_BLOCK_CACHE_H_
