// Internal key format (LevelDB-style).
//
// Every entry in the memtable and SSTables is keyed by an *internal key*:
//   user_key | trailer(8 bytes, little-endian): (sequence << 8) | type
// Ordering: user key ascending, then sequence *descending* (so the newest
// version of a key sorts first), then type descending. Deletes are entries
// with type kTypeDeletion — the paper's "flag attached to each entry to
// indicate if it is a delete" (Sec. 2).

#ifndef MONKEYDB_LSM_INTERNAL_KEY_H_
#define MONKEYDB_LSM_INTERNAL_KEY_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "util/coding.h"
#include "util/comparator.h"
#include "util/slice.h"

namespace monkeydb {

using SequenceNumber = uint64_t;

// Max sequence: 56 bits (8 reserved for the type tag).
inline constexpr SequenceNumber kMaxSequenceNumber = ((1ull << 56) - 1);

enum class ValueType : uint8_t {
  kDeletion = 0x0,
  kValue = 0x1,
  // The value field holds a ValueHandle into the value log (WiscKey-style
  // key-value separation; see lsm/value_log.h).
  kValueHandle = 0x2,
};

// Largest tag value; used when building lookup keys so the probe sorts
// before every entry of the same user key with sequence <= snapshot.
inline constexpr ValueType kValueTypeForSeek = ValueType::kValueHandle;

inline uint64_t PackSequenceAndType(SequenceNumber seq, ValueType t) {
  return (seq << 8) | static_cast<uint64_t>(t);
}

// Appends internal key (user_key + trailer) to *result.
inline void AppendInternalKey(std::string* result, const Slice& user_key,
                              SequenceNumber seq, ValueType t) {
  result->append(user_key.data(), user_key.size());
  PutFixed64(result, PackSequenceAndType(seq, t));
}

struct ParsedInternalKey {
  Slice user_key;
  SequenceNumber sequence;
  ValueType type;
};

// Returns false if internal_key is too short to carry a trailer.
inline bool ParseInternalKey(const Slice& internal_key,
                             ParsedInternalKey* result) {
  if (internal_key.size() < 8) return false;
  const uint64_t tag = DecodeFixed64(internal_key.data() +
                                     internal_key.size() - 8);
  result->user_key = Slice(internal_key.data(), internal_key.size() - 8);
  result->sequence = tag >> 8;
  const uint8_t type_byte = static_cast<uint8_t>(tag & 0xff);
  if (type_byte > static_cast<uint8_t>(ValueType::kValueHandle)) return false;
  result->type = static_cast<ValueType>(type_byte);
  return true;
}

inline Slice ExtractUserKey(const Slice& internal_key) {
  return Slice(internal_key.data(), internal_key.size() - 8);
}

// Orders internal keys: user key ascending, then tag (sequence|type)
// descending, so that for equal user keys the newest entry comes first.
class InternalKeyComparator {
 public:
  explicit InternalKeyComparator(const Comparator* user_comparator)
      : user_comparator_(user_comparator) {}

  int Compare(const Slice& a, const Slice& b) const {
    int r = user_comparator_->Compare(ExtractUserKey(a), ExtractUserKey(b));
    if (r == 0) {
      const uint64_t atag = DecodeFixed64(a.data() + a.size() - 8);
      const uint64_t btag = DecodeFixed64(b.data() + b.size() - 8);
      if (atag > btag) {
        r = -1;
      } else if (atag < btag) {
        r = +1;
      }
    }
    return r;
  }

  const Comparator* user_comparator() const { return user_comparator_; }

 private:
  const Comparator* user_comparator_;
};

// A lookup key: the internal key for (user_key, snapshot sequence) that
// sorts before all entries visible at that snapshot, stored after its
// varint32 length so the memtable can seek with it as is:
//   varint32 internal_key_size | user_key | trailer(8 bytes)
// Keys up to kInlineBytes live inside the object (no allocation per Get).
class LookupKey {
 public:
  LookupKey(const Slice& user_key, SequenceNumber sequence) {
    const size_t internal_size = user_key.size() + 8;
    size_ = static_cast<size_t>(VarintLength(internal_size)) + internal_size;
    if (size_ > kInlineBytes) heap_.resize(size_);
    char* p = EncodeVarint32(data(), static_cast<uint32_t>(internal_size));
    internal_start_ = static_cast<uint8_t>(p - data());
    memcpy(p, user_key.data(), user_key.size());
    EncodeFixed64(p + user_key.size(),
                  PackSequenceAndType(sequence, kValueTypeForSeek));
  }

  // The length-prefixed key the memtable's skiplist is ordered by.
  Slice memtable_key() const { return Slice(data(), size_); }
  Slice internal_key() const {
    return Slice(data() + internal_start_, size_ - internal_start_);
  }
  Slice user_key() const {
    return Slice(data() + internal_start_, size_ - internal_start_ - 8);
  }

 private:
  static constexpr size_t kInlineBytes = 128;

  char* data() { return size_ > kInlineBytes ? heap_.data() : inline_; }
  const char* data() const {
    return size_ > kInlineBytes ? heap_.data() : inline_;
  }

  char inline_[kInlineBytes];
  std::string heap_;  // Used only for keys longer than kInlineBytes.
  size_t size_;
  uint8_t internal_start_;
};

}  // namespace monkeydb

#endif  // MONKEYDB_LSM_INTERNAL_KEY_H_
