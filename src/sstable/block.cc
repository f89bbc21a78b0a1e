#include "sstable/block.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "util/coding.h"

namespace monkeydb {

// --- BlockBuilder ---

BlockBuilder::BlockBuilder(int restart_interval)
    : restart_interval_(restart_interval) {
  assert(restart_interval_ >= 1);
  restarts_.push_back(0);
}

void BlockBuilder::Reset() {
  buffer_.clear();
  restarts_.clear();
  restarts_.push_back(0);
  counter_ = 0;
  finished_ = false;
  last_key_.clear();
}

size_t BlockBuilder::CurrentSizeEstimate() const {
  return buffer_.size() + restarts_.size() * sizeof(uint32_t) +
         sizeof(uint32_t);
}

void BlockBuilder::Add(const Slice& key, const Slice& value) {
  assert(!finished_);
  size_t shared = 0;
  if (counter_ < restart_interval_) {
    // Compute the shared prefix with the previous key.
    const size_t min_length = std::min(last_key_.size(), key.size());
    while (shared < min_length && last_key_[shared] == key[shared]) {
      shared++;
    }
  } else {
    restarts_.push_back(static_cast<uint32_t>(buffer_.size()));
    counter_ = 0;
  }
  const size_t non_shared = key.size() - shared;

  PutVarint32(&buffer_, static_cast<uint32_t>(shared));
  PutVarint32(&buffer_, static_cast<uint32_t>(non_shared));
  PutVarint32(&buffer_, static_cast<uint32_t>(value.size()));
  buffer_.append(key.data() + shared, non_shared);
  buffer_.append(value.data(), value.size());

  last_key_.resize(shared);
  last_key_.append(key.data() + shared, non_shared);
  counter_++;
}

Slice BlockBuilder::Finish() {
  for (uint32_t restart : restarts_) {
    PutFixed32(&buffer_, restart);
  }
  PutFixed32(&buffer_, static_cast<uint32_t>(restarts_.size()));
  finished_ = true;
  return Slice(buffer_);
}

// --- BlockCursor ---

void BlockCursor::KeyBuffer::Rebuild(size_t shared, const char* delta,
                                     size_t n) {
  const size_t len = shared + n;
  if (data_ == inline_ && len > kInlineKeyBytes) heap_.assign(inline_, shared);
  if (data_ != inline_ || len > kInlineKeyBytes) {
    heap_.resize(len);
    data_ = heap_.data();
  }
  memcpy(data_ + shared, delta, n);
  size_ = len;
}

BlockCursor::BlockCursor(const InternalKeyComparator* comparator,
                         const Slice& contents)
    : comparator_(comparator) {
  if (contents.size() < sizeof(uint32_t)) return;
  num_restarts_ =
      DecodeFixed32(contents.data() + contents.size() - sizeof(uint32_t));
  const size_t restart_array_bytes =
      (static_cast<size_t>(num_restarts_) + 1) * sizeof(uint32_t);
  if (restart_array_bytes > contents.size()) {
    num_restarts_ = 0;
    return;
  }
  data_ = contents.data();
  data_size_ = contents.size() - restart_array_bytes;
  restarts_ = data_ + data_size_;
  current_ = data_size_;
  ok_ = true;
}

void BlockCursor::SeekToFirst() {
  SeekToRestartPoint(0);
  ParseNextKey();
}

void BlockCursor::SeekToLast() {
  SeekToRestartPoint(num_restarts_ == 0 ? 0 : num_restarts_ - 1);
  while (ParseNextKey() && next_offset_ < data_size_) {
    // Keep advancing to the last entry.
  }
}

void BlockCursor::Seek(const Slice& target) {
  // Binary search over restart points: find the last restart whose key is
  // < target, then scan forward.
  uint32_t left = 0;
  uint32_t right = (num_restarts_ == 0) ? 0 : num_restarts_ - 1;
  while (left < right) {
    const uint32_t mid = (left + right + 1) / 2;
    Slice mid_key;
    if (!KeyAtRestart(mid, &mid_key)) {
      Corrupt();
      return;
    }
    if (comparator_->Compare(mid_key, target) < 0) {
      left = mid;
    } else {
      right = mid - 1;
    }
  }
  SeekToRestartPoint(left);
  while (ParseNextKey()) {
    if (comparator_->Compare(key(), target) >= 0) return;
  }
}

void BlockCursor::Next() {
  assert(Valid());
  ParseNextKey();
}

void BlockCursor::Prev() {
  assert(Valid());
  // Find the restart point strictly before current_, then scan to the
  // entry preceding current_.
  const size_t original = current_;
  uint32_t restart_index = num_restarts_ - 1;
  while (restart_index > 0 && RestartOffset(restart_index) >= original) {
    restart_index--;
  }
  if (RestartOffset(restart_index) >= original) {
    current_ = data_size_;  // Before the first entry: invalidate.
    key_.Clear();
    return;
  }
  SeekToRestartPoint(restart_index);
  while (true) {
    const size_t entry_start = next_offset_;
    if (!ParseNextKey()) return;
    if (next_offset_ >= original) {
      current_ = entry_start;
      return;
    }
  }
}

size_t BlockCursor::RestartOffset(uint32_t index) const {
  return DecodeFixed32(restarts_ + index * sizeof(uint32_t));
}

void BlockCursor::SeekToRestartPoint(uint32_t index) {
  key_.Clear();
  next_offset_ = (num_restarts_ == 0) ? 0 : RestartOffset(index);
  current_ = data_size_;
  value_ = Slice();
}

// Decodes a full key at a restart point without disturbing the cursor.
bool BlockCursor::KeyAtRestart(uint32_t index, Slice* out) const {
  const char* p = data_ + RestartOffset(index);
  const char* limit = data_ + data_size_;
  uint32_t shared, non_shared, value_len;
  p = GetVarint32Ptr(p, limit, &shared);
  if (p == nullptr || shared != 0) return false;
  p = GetVarint32Ptr(p, limit, &non_shared);
  if (p == nullptr) return false;
  p = GetVarint32Ptr(p, limit, &value_len);
  if (p == nullptr || p + non_shared > limit) return false;
  *out = Slice(p, non_shared);
  return true;
}

// Parses the entry at next_offset_ into key_/value_ and advances. Returns
// false (and invalidates) at end of block or on corruption.
bool BlockCursor::ParseNextKey() {
  current_ = next_offset_;
  if (current_ >= data_size_) {
    key_.Clear();
    value_ = Slice();
    current_ = data_size_;
    return false;
  }
  const char* p = data_ + current_;
  const char* limit = data_ + data_size_;
  uint32_t shared, non_shared, value_len;
  p = GetVarint32Ptr(p, limit, &shared);
  if (p) p = GetVarint32Ptr(p, limit, &non_shared);
  if (p) p = GetVarint32Ptr(p, limit, &value_len);
  if (p == nullptr || p + non_shared + value_len > limit ||
      shared > key_.size()) {
    Corrupt();
    return false;
  }
  key_.Rebuild(shared, p, non_shared);
  value_ = Slice(p + non_shared, value_len);
  next_offset_ = (p + non_shared + value_len) - data_;
  return true;
}

void BlockCursor::Corrupt() {
  status_ = Status::Corruption("malformed block entry");
  current_ = data_size_;
  key_.Clear();
}

// --- Block ---

Block::Block(std::shared_ptr<const std::string> contents)
    : contents_(std::move(contents)),
      ok_(BlockCursor(nullptr, Slice(*contents_)).ok()) {}

namespace {

// Heap iterator for scans: a BlockCursor plus a reference that keeps the
// bytes alive.
class BlockIterator : public Iterator {
 public:
  BlockIterator(const InternalKeyComparator* comparator,
                std::shared_ptr<const std::string> owner)
      : owner_(std::move(owner)), cursor_(comparator, Slice(*owner_)) {}

  bool Valid() const override { return cursor_.Valid(); }
  void SeekToFirst() override { cursor_.SeekToFirst(); }
  void SeekToLast() override { cursor_.SeekToLast(); }
  void Seek(const Slice& target) override { cursor_.Seek(target); }
  void Next() override { cursor_.Next(); }
  void Prev() override { cursor_.Prev(); }

  Slice key() const override {
    assert(Valid());
    return cursor_.key();
  }

  Slice value() const override {
    assert(Valid());
    return cursor_.value();
  }

  Status status() const override { return cursor_.status(); }

 private:
  std::shared_ptr<const std::string> owner_;  // Keeps the payload alive.
  BlockCursor cursor_;
};

class ErrorIterator : public Iterator {
 public:
  explicit ErrorIterator(Status s) : status_(std::move(s)) {}
  bool Valid() const override { return false; }
  void SeekToFirst() override {}
  void SeekToLast() override {}
  void Seek(const Slice&) override {}
  void Next() override {}
  void Prev() override {}
  Slice key() const override { return Slice(); }
  Slice value() const override { return Slice(); }
  Status status() const override { return status_; }

 private:
  Status status_;
};

}  // namespace

std::unique_ptr<Iterator> Block::NewIterator(
    const InternalKeyComparator* comparator) const {
  if (!ok_) {
    return std::make_unique<ErrorIterator>(
        Status::Corruption("malformed block"));
  }
  return std::make_unique<BlockIterator>(comparator, contents_);
}

}  // namespace monkeydb
