#include "lsm/version.h"

#include <algorithm>

#include "util/coding.h"

namespace monkeydb {

int Version::DeepestNonEmptyLevel() const {
  for (int level = NumLevels(); level >= 1; level--) {
    if (!RunsAt(level).empty()) return level;
  }
  return 0;
}

uint64_t Version::EntriesAt(int level) const {
  uint64_t total = 0;
  for (const RunPtr& run : RunsAt(level)) total += run->num_entries;
  return total;
}

uint64_t Version::TotalEntries() const {
  uint64_t total = 0;
  for (const auto& level : levels_) {
    for (const auto& run : level) total += run->num_entries;
  }
  return total;
}

uint64_t Version::TotalRuns() const {
  uint64_t total = 0;
  for (const auto& level : levels_) total += level.size();
  return total;
}

uint64_t Version::TotalFilterBits() const {
  uint64_t total = 0;
  for (const auto& level : levels_) {
    for (const auto& run : level) {
      if (run->table != nullptr) total += run->table->filter_size_bits();
    }
  }
  return total;
}

void Version::Apply(const VersionEdit& edit) {
  for (uint64_t fn : edit.deleted_files) {
    for (auto& level : levels_) {
      level.erase(std::remove_if(level.begin(), level.end(),
                                 [fn](const RunPtr& r) {
                                   return r->file_number == fn;
                                 }),
                  level.end());
    }
  }
  // Inserting back to front keeps each level's added runs in edit order.
  for (auto it = edit.added.rbegin(); it != edit.added.rend(); ++it) {
    EnsureLevel(it->level);
    auto& runs = levels_[it->level - 1];
    runs.insert(runs.begin(), it->run);
  }
}

VersionEdit Version::Snapshot() const {
  VersionEdit edit;
  for (int level = 1; level <= NumLevels(); level++) {
    for (const RunPtr& run : RunsAt(level)) edit.AddRun(level, run);
  }
  return edit;
}

uint64_t ReadView::MemEntries() const {
  uint64_t total = 0;
  for (const auto& m : memtables) total += m->num_entries();
  return total;
}

// Edit record tags.
namespace {
constexpr uint32_t kTagAddedRun = 1;
constexpr uint32_t kTagDeletedFile = 2;
constexpr uint32_t kTagLastSequence = 3;
constexpr uint32_t kTagNextFileNumber = 4;
}  // namespace

void VersionEdit::EncodeTo(std::string* dst) const {
  for (const AddedRun& added_run : added) {
    const RunMetadata& run = *added_run.run;
    PutVarint32(dst, kTagAddedRun);
    PutVarint32(dst, static_cast<uint32_t>(added_run.level));
    PutVarint64(dst, run.file_number);
    PutVarint64(dst, run.file_size);
    PutVarint64(dst, run.num_entries);
    PutVarint64(dst, run.sequence);
    PutLengthPrefixedSlice(dst, Slice(run.smallest));
    PutLengthPrefixedSlice(dst, Slice(run.largest));
  }
  for (uint64_t file_number : deleted_files) {
    PutVarint32(dst, kTagDeletedFile);
    PutVarint64(dst, file_number);
  }
  PutVarint32(dst, kTagLastSequence);
  PutVarint64(dst, last_sequence);
  PutVarint32(dst, kTagNextFileNumber);
  PutVarint64(dst, next_file_number);
}

Status VersionEdit::DecodeFrom(const Slice& src) {
  added.clear();
  deleted_files.clear();
  Slice input = src;
  uint32_t tag;
  while (GetVarint32(&input, &tag)) {
    switch (tag) {
      case kTagAddedRun: {
        auto run = std::make_shared<RunMetadata>();
        uint32_t level;
        Slice smallest, largest;
        if (!GetVarint32(&input, &level) ||
            !GetVarint64(&input, &run->file_number) ||
            !GetVarint64(&input, &run->file_size) ||
            !GetVarint64(&input, &run->num_entries) ||
            !GetVarint64(&input, &run->sequence) ||
            !GetLengthPrefixedSlice(&input, &smallest) ||
            !GetLengthPrefixedSlice(&input, &largest) || level < 1) {
          return Status::Corruption("bad AddedRun record");
        }
        run->smallest = smallest.ToString();
        run->largest = largest.ToString();
        AddRun(static_cast<int>(level), std::move(run));
        break;
      }
      case kTagDeletedFile: {
        uint64_t file_number;
        if (!GetVarint64(&input, &file_number)) {
          return Status::Corruption("bad DeletedFile record");
        }
        deleted_files.push_back(file_number);
        break;
      }
      case kTagLastSequence:
        if (!GetVarint64(&input, &last_sequence)) {
          return Status::Corruption("bad LastSequence record");
        }
        break;
      case kTagNextFileNumber:
        if (!GetVarint64(&input, &next_file_number)) {
          return Status::Corruption("bad NextFileNumber record");
        }
        break;
      default:
        return Status::Corruption("unknown version edit tag");
    }
  }
  return Status::OK();
}

}  // namespace monkeydb
