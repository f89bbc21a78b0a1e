// Data/index block format with prefix compression and restart points
// (LevelDB-style):
//
//   entry:   varint32 shared | varint32 non_shared | varint32 value_len
//            | key delta bytes | value bytes
//   trailer: fixed32 restart_offset[num_restarts] | fixed32 num_restarts
//
// Every kRestartInterval-th entry stores the full key; Seek binary-searches
// the restart array then scans forward.

#ifndef MONKEYDB_SSTABLE_BLOCK_H_
#define MONKEYDB_SSTABLE_BLOCK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lsm/internal_key.h"
#include "util/iterator.h"
#include "util/slice.h"
#include "util/status.h"

namespace monkeydb {

class BlockBuilder {
 public:
  explicit BlockBuilder(int restart_interval = 16);

  BlockBuilder(const BlockBuilder&) = delete;
  BlockBuilder& operator=(const BlockBuilder&) = delete;

  // Adds an entry. REQUIRES: key > all previously added keys.
  void Add(const Slice& key, const Slice& value);

  // Returns the finished block payload and leaves the builder unusable
  // until Reset().
  Slice Finish();

  void Reset();

  // Estimated size of the block being built (including trailer).
  size_t CurrentSizeEstimate() const;

  bool empty() const { return buffer_.empty(); }

 private:
  const int restart_interval_;
  std::string buffer_;
  std::vector<uint32_t> restarts_;
  int counter_ = 0;          // Entries since last restart.
  bool finished_ = false;
  std::string last_key_;
};

// A cursor over one block's entries: the parse and seek logic behind
// Block::NewIterator, usable on the stack. It neither owns nor copies the
// bytes (they must outlive it) and, for keys up to kInlineKeyBytes, never
// allocates — so a point lookup seeks the index and data blocks without a
// heap iterator or key string. Longer keys spill to the heap.
class BlockCursor {
 public:
  // contents: the whole block payload (entries + restart array). Check
  // ok() before positioning the cursor.
  BlockCursor(const InternalKeyComparator* comparator, const Slice& contents);

  BlockCursor(const BlockCursor&) = delete;
  BlockCursor& operator=(const BlockCursor&) = delete;

  // False if the restart array is malformed.
  bool ok() const { return ok_; }

  bool Valid() const { return current_ < data_size_; }
  void SeekToFirst();
  void SeekToLast();
  // Positions at the first entry whose key is >= target.
  void Seek(const Slice& target);
  void Next();
  void Prev();

  Slice key() const { return Slice(key_.data(), key_.size()); }
  Slice value() const { return value_; }
  const Status& status() const { return status_; }

 private:
  // The current key, rebuilt from prefix-compressed entries.
  class KeyBuffer {
   public:
    KeyBuffer() = default;
    KeyBuffer(const KeyBuffer&) = delete;
    KeyBuffer& operator=(const KeyBuffer&) = delete;

    const char* data() const { return data_; }
    size_t size() const { return size_; }
    void Clear() { size_ = 0; }
    // Keeps the first `shared` bytes (<= size()) and appends n more.
    void Rebuild(size_t shared, const char* delta, size_t n);

   private:
    static constexpr size_t kInlineKeyBytes = 128;
    char inline_[kInlineKeyBytes];
    std::string heap_;  // Used once a key outgrows inline_.
    char* data_ = inline_;
    size_t size_ = 0;
  };

  size_t RestartOffset(uint32_t index) const;
  void SeekToRestartPoint(uint32_t index);
  bool KeyAtRestart(uint32_t index, Slice* out) const;
  bool ParseNextKey();
  void Corrupt();

  const InternalKeyComparator* comparator_;
  const char* data_ = nullptr;
  size_t data_size_ = 0;  // Bytes before the restart array.
  const char* restarts_ = nullptr;
  uint32_t num_restarts_ = 0;
  bool ok_ = false;

  size_t current_ = 0;  // Offset of current entry (data_size_ = invalid).
  size_t next_offset_ = 0;
  KeyBuffer key_;
  Slice value_;
  Status status_;
};

// An immutable block that owns (or shares, with a block cache) its bytes
// and hands out heap iterators over them for scans.
class Block {
 public:
  // Takes shared ownership of the payload bytes.
  explicit Block(std::shared_ptr<const std::string> contents);

  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  bool ok() const { return ok_; }
  // The whole payload, for a BlockCursor.
  Slice contents() const { return Slice(*contents_); }

  // The comparator orders the (internal) keys stored in this block.
  std::unique_ptr<Iterator> NewIterator(
      const InternalKeyComparator* comparator) const;

 private:
  std::shared_ptr<const std::string> contents_;
  bool ok_ = false;
};

}  // namespace monkeydb

#endif  // MONKEYDB_SSTABLE_BLOCK_H_
