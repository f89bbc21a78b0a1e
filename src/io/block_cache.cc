#include "io/block_cache.h"

#include <utility>

namespace monkeydb {

namespace {

// Recency-list primitives over circular, sentinel-headed lists.
template <typename E>
void Unlink(E* e) {
  e->prev->next = e->next;
  e->next->prev = e->prev;
}

template <typename E>
void PushFront(E* head, E* e) {
  e->next = head->next;
  e->prev = head;
  head->next->prev = e;
  head->next = e;
}

}  // namespace

// Runs when the last shared_ptr to a published page drops.
struct BlockCache::PageReturn {
  std::shared_ptr<FreeList<std::string>> pool;
  void operator()(std::string* page) const {
    if (!pool->Push(page)) delete page;
  }
};

BlockCache::Buffer::~Buffer() {
  if (page_ != nullptr && pool_->Push(page_.get())) page_.release();
}

std::shared_ptr<const std::string> BlockCache::Buffer::Publish() {
  if (page_ == nullptr) {
    return std::make_shared<const std::string>(std::move(own_));
  }
  return std::shared_ptr<const std::string>(page_.release(),
                                            PageReturn{std::move(pool_)});
}

BlockCache::BlockCache(size_t capacity_bytes)
    : capacity_(capacity_bytes),
      // Round up: flooring would drop up to kNumShards-1 bytes of budget,
      // and for capacities below kNumShards it would zero every shard's
      // allowance, effectively disabling the cache.
      per_shard_capacity_((capacity_bytes + kNumShards - 1) / kNumShards),
      hot_capacity_((per_shard_capacity_ + 1) / 2) {
  if (capacity_ == 0) return;
  // About one bucket per page the shard can hold; smaller blocks only
  // lengthen the chains.
  int bits = 4;
  while (bits < 16 && (size_t{1} << bits) * kPageBytes < per_shard_capacity_) {
    bits++;
  }
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    shard.bucket_bits = bits;
    shard.buckets = std::make_unique<Entry*[]>(size_t{1} << bits);
  }
}

BlockCache::~BlockCache() {
  for (Shard& shard : shards_) {
    Entry* entries = nullptr;
    {
      MutexLock lock(shard.mu);
      for (Entry* head : {&shard.hot, &shard.cold}) {
        while (head->next != head) {
          Entry* e = head->next;
          Unlink(e);
          e->next_hash = entries;
          entries = e;
        }
      }
    }
    Release(&shard, entries);
  }
}

BlockCache::Entry** BlockCache::Shard::Find(const Key& key) const {
  // The low bits of KeyHash picked the shard, so index by the high bits of
  // a second multiplicative mix.
  const uint64_t mixed = KeyHash()(key) * 0x9E3779B97F4A7C15ULL;
  Entry** slot = &buckets[mixed >> (64 - bucket_bits)];
  while (*slot != nullptr && !((*slot)->key == key)) {
    slot = &(*slot)->next_hash;
  }
  return slot;
}

std::shared_ptr<const std::string> BlockCache::Lookup(const Key& key,
                                                      bool* was_prefetched,
                                                      Buffer* miss_buffer) {
  if (was_prefetched != nullptr) *was_prefetched = false;
  if (capacity_ == 0) return nullptr;
  Shard* shard = &shards_[ShardIndex(key)];
  {
    MutexLock lock(shard->mu);
    Entry* entry = *shard->Find(key);
    if (entry != nullptr) {
      shard->hits++;
      if (entry->prefetched) {
        shard->prefetch_hits++;
        entry->prefetched = false;
        if (was_prefetched != nullptr) *was_prefetched = true;
      }
      // Promote to the hot front (most recently used); a referenced scan
      // block graduates from the cold segment here.
      Unlink(entry);
      if (!entry->hot) {
        entry->hot = true;
        shard->hot_count++;
        shard->hot_usage += entry->block->size();
      }
      PushFront(&shard->hot, entry);
      // Usage is unchanged, so only the hot budget can need rebalancing.
      DemoteLocked(shard);
      return entry->block;
    }
    shard->misses++;
  }
  // Hand out a page for the read. The free list is lock-free, so this
  // needs no second lock hold.
  if (miss_buffer != nullptr && miss_buffer->bytes_ > kPageBytes / 2 &&
      miss_buffer->bytes_ <= kPageBytes) {
    std::string* page = shard->pages->Pop();
    if (page == nullptr) {
      page = new std::string;
      page->reserve(kPageBytes);
    }
    miss_buffer->page_.reset(page);
    miss_buffer->pool_ = shard->pages;
  }
  return nullptr;
}

void BlockCache::Insert(const Key& key,
                        std::shared_ptr<const std::string> block,
                        InsertPriority priority) {
  if (capacity_ == 0 || block == nullptr) return;
  Shard* shard = &shards_[ShardIndex(key)];
  // Everything that allocates happens before the lock.
  Entry* entry = shard->spare.Pop();
  if (entry == nullptr) entry = new Entry;
  entry->key = key;
  entry->block = std::move(block);
  entry->hot = priority == InsertPriority::kHigh;
  entry->prefetched = !entry->hot;
  const size_t size = entry->block->size();
  Entry* victims = nullptr;
  {
    MutexLock lock(shard->mu);
    if (Entry* old = *shard->Find(key)) {
      RemoveLocked(shard, old);
      old->next_hash = victims;
      victims = old;
    }
    Entry** slot = shard->Find(key);
    entry->next_hash = *slot;
    *slot = entry;
    shard->count++;
    shard->usage += size;
    if (entry->hot) {
      shard->hot_count++;
      shard->hot_usage += size;
      PushFront(&shard->hot, entry);
    } else {
      // Midpoint insertion: the block sits behind the whole hot segment in
      // eviction order, so a scan can only displace other cold blocks.
      shard->scan_inserts++;
      PushFront(&shard->cold, entry);
    }
    DemoteLocked(shard);
    EvictLocked(shard, &victims);
  }
  Release(shard, victims);
}

bool BlockCache::Contains(const Key& key) const {
  if (capacity_ == 0) return false;
  const Shard* shard = &shards_[ShardIndex(key)];
  MutexLock lock(shard->mu);
  return *shard->Find(key) != nullptr;
}

void BlockCache::EraseFile(uint64_t file_id) {
  if (capacity_ == 0) return;
  for (Shard& shard : shards_) {
    Entry* victims = nullptr;
    {
      MutexLock lock(shard.mu);
      for (Entry* head : {&shard.hot, &shard.cold}) {
        for (Entry* e = head->next; e != head;) {
          Entry* next = e->next;
          if (e->key.file_id == file_id) {
            RemoveLocked(&shard, e);
            e->next_hash = victims;
            victims = e;
          }
          e = next;
        }
      }
    }
    Release(&shard, victims);
  }
}

void BlockCache::RemoveLocked(Shard* shard, Entry* e) {
  *shard->Find(e->key) = e->next_hash;
  Unlink(e);
  const size_t size = e->block->size();
  shard->count--;
  shard->usage -= size;
  if (e->hot) {
    shard->hot_count--;
    shard->hot_usage -= size;
  }
}

void BlockCache::DemoteLocked(Shard* shard) const {
  while (shard->hot_usage > hot_capacity_ && shard->hot_count > 1) {
    Entry* last = shard->hot.prev;
    last->hot = false;
    shard->hot_count--;
    shard->hot_usage -= last->block->size();
    Unlink(last);
    PushFront(&shard->cold, last);
  }
}

void BlockCache::EvictLocked(Shard* shard, Entry** victims) const {
  while (shard->usage > per_shard_capacity_ && shard->count > 1) {
    Entry* victim =
        shard->cold.next != &shard->cold ? shard->cold.prev : shard->hot.prev;
    RemoveLocked(shard, victim);
    victim->next_hash = *victims;
    *victims = victim;
  }
}

void BlockCache::Release(Shard* shard, Entry* victims) {
  while (victims != nullptr) {
    Entry* e = victims;
    victims = e->next_hash;
    e->block.reset();  // May return a page to its free list.
    e->next_hash = nullptr;
    if (!shard->spare.Push(e)) delete e;
  }
}

size_t BlockCache::usage_bytes() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.usage;
  }
  return total;
}

uint64_t BlockCache::hits() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.hits;
  }
  return total;
}

uint64_t BlockCache::misses() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.misses;
  }
  return total;
}

uint64_t BlockCache::prefetch_hits() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.prefetch_hits;
  }
  return total;
}

uint64_t BlockCache::scan_inserts() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.scan_inserts;
  }
  return total;
}

void BlockCache::ResetCounters() {
  for (auto& shard : shards_) {
    MutexLock lock(shard.mu);
    shard.hits = 0;
    shard.misses = 0;
    shard.prefetch_hits = 0;
    shard.scan_inserts = 0;
  }
}

}  // namespace monkeydb
