// MemTable: the in-memory write buffer (the paper's Level 0 / M_buffer).
//
// Updates, inserts, and deletes land here first; when ApproximateMemoryUsage
// exceeds the configured buffer budget the LSM engine sorts the contents
// (already sorted via the skiplist) and flushes them to Level 1 as a run.

#ifndef MONKEYDB_MEMTABLE_MEMTABLE_H_
#define MONKEYDB_MEMTABLE_MEMTABLE_H_

#include <atomic>
#include <memory>
#include <string>

#include "lsm/internal_key.h"
#include "memtable/skiplist.h"
#include "util/arena.h"
#include "util/iterator.h"

namespace monkeydb {

// Concurrency: Add requires external writer serialization (the engine's
// group-commit leader). Get, NewIterator, num_entries, and
// ApproximateMemoryUsage are safe to call concurrently with the writer and
// never block (the skiplist publishes nodes with release/acquire links).
class MemTable {
 public:
  explicit MemTable(const InternalKeyComparator& comparator);
  ~MemTable();

  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  // Adds an entry keyed by (key, seq, type). For type kDeletion, value is
  // ignored (a tombstone is stored).
  void Add(SequenceNumber seq, ValueType type, const Slice& key,
           const Slice& value);

  // If the memtable contains a visible entry for key:
  //   value entry   -> sets *value, returns OK
  //   tombstone     -> returns NotFound with found_tombstone=true semantics
  // If no entry exists, returns NotFound and sets *found_entry = false.
  // If type != nullptr, receives the found entry's ValueType (so callers
  // can resolve value-log handles).
  Status Get(const LookupKey& lookup, std::string* value, bool* found_entry,
             ValueType* type = nullptr) const;

  // Bytes of memory used (arena footprint) — the live M_buffer occupancy.
  size_t ApproximateMemoryUsage() const { return arena_.MemoryUsage(); }

  // Number of entries added.
  uint64_t num_entries() const {
    return num_entries_.load(std::memory_order_relaxed);
  }

  // Iterates over internal keys in sorted order. key() returns the internal
  // key; value() the user value (empty for tombstones).
  std::unique_ptr<Iterator> NewIterator() const;

  // Exposed for the iterator implementation; not part of the public API.
  struct KeyComparator {
    InternalKeyComparator comparator;
    // Entries are length-prefixed internal keys.
    int operator()(const char* a, const char* b) const;
  };

 private:
  using Table = SkipList<const char*, KeyComparator>;

  KeyComparator comparator_;
  Arena arena_;
  Table table_;
  std::atomic<uint64_t> num_entries_{0};
};

}  // namespace monkeydb

#endif  // MONKEYDB_MEMTABLE_MEMTABLE_H_
