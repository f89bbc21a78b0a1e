#include "memtable/memtable.h"

#include "util/coding.h"

namespace monkeydb {

// Entry layout in the arena:
//   varint32 internal_key_len | internal_key bytes | varint32 val_len | value

namespace {

Slice GetLengthPrefixed(const char* data) {
  uint32_t len;
  const char* p = GetVarint32Ptr(data, data + 5, &len);
  return Slice(p, len);
}

}  // namespace

int MemTable::KeyComparator::operator()(const char* a, const char* b) const {
  Slice ka = GetLengthPrefixed(a);
  Slice kb = GetLengthPrefixed(b);
  return comparator.Compare(ka, kb);
}

MemTable::MemTable(const InternalKeyComparator& comparator)
    : comparator_{comparator}, table_(comparator_, &arena_) {}

MemTable::~MemTable() = default;

void MemTable::Add(SequenceNumber seq, ValueType type, const Slice& key,
                   const Slice& value) {
  const size_t internal_key_size = key.size() + 8;
  const Slice stored_value = (type == ValueType::kDeletion) ? Slice() : value;
  const size_t encoded_len = VarintLength(internal_key_size) +
                             internal_key_size +
                             VarintLength(stored_value.size()) +
                             stored_value.size();
  char* buf = arena_.Allocate(encoded_len);
  char* p = buf;

  // internal key
  p = EncodeVarint32(p, static_cast<uint32_t>(internal_key_size));
  memcpy(p, key.data(), key.size());
  p += key.size();
  EncodeFixed64(p, PackSequenceAndType(seq, type));
  p += 8;

  // value
  p = EncodeVarint32(p, static_cast<uint32_t>(stored_value.size()));
  memcpy(p, stored_value.data(), stored_value.size());
  p += stored_value.size();
  assert(p == buf + encoded_len);

  table_.Insert(buf);
  num_entries_.fetch_add(1, std::memory_order_relaxed);
}

Status MemTable::Get(const LookupKey& lookup, std::string* value,
                     bool* found_entry, ValueType* type) const {
  *found_entry = false;
  Table::Iterator iter(&table_);
  iter.Seek(lookup.memtable_key().data());
  if (!iter.Valid()) return Status::NotFound();

  // The iterator is at the first entry >= lookup key. Because internal keys
  // order equal user keys newest-first, this is the newest visible version
  // iff the user keys match.
  const char* entry = iter.key();
  Slice internal_key = GetLengthPrefixed(entry);
  ParsedInternalKey parsed;
  if (!ParseInternalKey(internal_key, &parsed)) {
    return Status::Corruption("malformed memtable entry");
  }
  if (comparator_.comparator.user_comparator()->Compare(
          parsed.user_key, lookup.user_key()) != 0) {
    return Status::NotFound();
  }

  *found_entry = true;
  if (type != nullptr) *type = parsed.type;
  if (parsed.type == ValueType::kDeletion) {
    return Status::NotFound("deleted");
  }
  const char* value_pos = internal_key.data() + internal_key.size();
  Slice v = GetLengthPrefixed(value_pos);
  value->assign(v.data(), v.size());
  return Status::OK();
}

namespace {

class MemTableIterator : public Iterator {
 public:
  explicit MemTableIterator(
      const SkipList<const char*, MemTable::KeyComparator>* table)
      : iter_(table) {}

  bool Valid() const override { return iter_.Valid(); }
  void SeekToFirst() override { iter_.SeekToFirst(); }
  void SeekToLast() override { iter_.SeekToLast(); }

  void Seek(const Slice& target) override {
    seek_buf_.clear();
    PutVarint32(&seek_buf_, static_cast<uint32_t>(target.size()));
    seek_buf_.append(target.data(), target.size());
    iter_.Seek(seek_buf_.data());
  }

  void Next() override { iter_.Next(); }
  void Prev() override { iter_.Prev(); }

  Slice key() const override { return GetLengthPrefixed(iter_.key()); }

  Slice value() const override {
    Slice k = GetLengthPrefixed(iter_.key());
    return GetLengthPrefixed(k.data() + k.size());
  }

  Status status() const override { return Status::OK(); }

 private:
  SkipList<const char*, MemTable::KeyComparator>::Iterator iter_;
  std::string seek_buf_;
};

}  // namespace

std::unique_ptr<Iterator> MemTable::NewIterator() const {
  return std::make_unique<MemTableIterator>(&table_);
}

}  // namespace monkeydb
