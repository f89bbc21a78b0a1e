// EventListener: callbacks for the engine's background lifecycle events
// (RocksDB's listener API, sized for this engine).
//
// Contract:
//  - Callbacks run synchronously on the thread that produced the event
//    (the writer for stall transitions and WAL rotation, the background
//    worker or the calling thread for flush/compaction). Keep them fast.
//  - Callbacks MUST NOT call back into the DB: several fire while internal
//    locks are held, so a reentrant Get/Write/Flush can deadlock.
//  - Exceptions thrown by a listener are caught, counted
//    (Tick::kListenerFailures) and logged; they never take down a
//    background worker (event_listener_test.cc exercises this).
//  - The info structs are snapshots; pointers/strings inside them are only
//    valid for the duration of the callback.

#ifndef MONKEYDB_OBS_EVENT_LISTENER_H_
#define MONKEYDB_OBS_EVENT_LISTENER_H_

#include <cstdint>
#include <string>

namespace monkeydb {

struct FlushJobInfo {
  uint64_t entries = 0;         // Entries in the flushed memtable.
  uint64_t micros = 0;          // Wall time (end event only).
  bool triggered_merge = false; // Leveling merged it into the L1 run.
  bool ok = true;               // End event only.
};

struct CompactionJobInfo {
  int input_level = 0;          // Level whose runs were consumed.
  int output_level = 0;         // Level that received the merged run.
  uint64_t input_runs = 0;
  uint64_t input_entries = 0;
  uint64_t output_entries = 0;  // End event only (post-dedup).
  uint64_t subcompactions = 1;  // Parallel range partitions used.
  uint64_t micros = 0;          // End event only.
  bool ok = true;               // End event only.
};

struct WriteStallInfo {
  enum class Condition { kNormal, kSlowdown, kStalled };
  Condition previous = Condition::kNormal;
  Condition current = Condition::kNormal;
  uint64_t immutable_memtables = 0;  // Queue depth that caused the change.
};

struct WalRotationInfo {
  uint64_t retired_file_number = 0;  // 0 on the first WAL of a DB.
  uint64_t new_file_number = 0;
};

// Fired when the Monkey allocator (or any FprPolicy) assigns a level's
// run FPR that differs from the previous allocation — the drift signal a
// self-tuning deployment watches (ISSUE 5 motivation).
struct FilterAllocationInfo {
  int level = 0;
  double previous_fpr = 0.0;  // 0 when the level is new.
  double fpr = 0.0;
  uint64_t run_entries = 0;
};

class EventListener {
 public:
  virtual ~EventListener() = default;

  virtual void OnFlushBegin(const FlushJobInfo& /*info*/) {}
  virtual void OnFlushCompleted(const FlushJobInfo& /*info*/) {}
  virtual void OnCompactionBegin(const CompactionJobInfo& /*info*/) {}
  virtual void OnCompactionCompleted(const CompactionJobInfo& /*info*/) {}
  virtual void OnWriteStallChange(const WriteStallInfo& /*info*/) {}
  virtual void OnWalRotation(const WalRotationInfo& /*info*/) {}
  virtual void OnFilterAllocation(const FilterAllocationInfo& /*info*/) {}
};

inline const char* ToString(WriteStallInfo::Condition c) {
  switch (c) {
    case WriteStallInfo::Condition::kNormal: return "normal";
    case WriteStallInfo::Condition::kSlowdown: return "slowdown";
    case WriteStallInfo::Condition::kStalled: return "stalled";
  }
  return "unknown";
}

}  // namespace monkeydb

#endif  // MONKEYDB_OBS_EVENT_LISTENER_H_
