// Arena: bump allocator backing the memtable skiplist and table builds.
// All memory is freed at once when the arena is destroyed.
//
// Single-threaded: exactly one thread allocates (MemoryUsage is safe to
// read concurrently).

#ifndef MONKEYDB_UTIL_ARENA_H_
#define MONKEYDB_UTIL_ARENA_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace monkeydb {

class Arena {
 public:
  // The historical default block size. Deliberately small: the figure
  // benches size memtables in single-digit MiB and flush on MemoryUsage()
  // crossings, so the default granularity is part of the reproduced
  // experiment setup.
  static constexpr size_t kDefaultBlockSize = 4096;
  static constexpr size_t kMaxAlign = 4096;

  Arena() : Arena(kDefaultBlockSize) {}
  // block_size must be >= 1 KiB; it is the granularity MemoryUsage() grows
  // in (allocations larger than block_size / 4 get their own block).
  explicit Arena(size_t block_size)
      : block_size_(block_size < 1024 ? 1024 : block_size) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Returns a pointer to bytes bytes of memory (bytes > 0).
  char* Allocate(size_t bytes);

  // Aligned allocation; align is a power of two, at most kMaxAlign, and 0
  // means alignof(std::max_align_t).
  char* AllocateAligned(size_t bytes, size_t align = 0);

  // Total memory footprint of the arena (used for memtable size accounting,
  // i.e. the paper's M_buffer).
  size_t MemoryUsage() const {
    return memory_usage_.load(std::memory_order_relaxed);
  }

  size_t block_size() const { return block_size_; }

 private:
  char* AllocateFallback(size_t bytes);
  char* AllocateNewBlock(size_t block_bytes);

  const size_t block_size_;
  char* alloc_ptr_ = nullptr;
  size_t alloc_bytes_remaining_ = 0;
  std::vector<std::unique_ptr<char[]>> blocks_;
  std::atomic<size_t> memory_usage_{0};
};

inline char* Arena::Allocate(size_t bytes) {
  assert(bytes > 0);
  if (bytes <= alloc_bytes_remaining_) {
    char* result = alloc_ptr_;
    alloc_ptr_ += bytes;
    alloc_bytes_remaining_ -= bytes;
    return result;
  }
  return AllocateFallback(bytes);
}

}  // namespace monkeydb

#endif  // MONKEYDB_UTIL_ARENA_H_
