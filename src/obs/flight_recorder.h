// The flight recorder: per-thread lock-free ring buffers of TraceEvents
// (DESIGN.md §14 "Tracing & flight recorder").
//
// Each recording thread owns one fixed-size ring (overwrite-oldest). A
// slot is a seqlock: the writer marks it odd, stores the payload words,
// then publishes an even sequence encoding the slot's position, all with
// atomics — so a concurrent Snapshot() never observes a torn event (it
// skips slots caught mid-write) and TSan sees no data race. Recording is
// wait-free after a thread's first event (which registers its ring under
// the registry mutex); steady-state recording allocates nothing.
//
// Rings outlive their threads: a thread's ring returns to a free pool on
// exit and is recycled by the next new thread, so thread churn is bounded
// and a dead thread's final spans stay visible until overwritten.

#ifndef MONKEYDB_OBS_FLIGHT_RECORDER_H_
#define MONKEYDB_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/trace.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace monkeydb {

class FlightRecorder {
 public:
  // Events retained per thread. Must be a power of two.
  static constexpr size_t kDefaultRingCapacity = 8192;

  // The process-wide recorder (trace spans from every DB and server in
  // the process land here, like PerfContext's thread-locals).
  static FlightRecorder* Global();

  FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Records into the calling thread's ring (creating/recycling one on the
  // thread's first event). Lock-free after that first call.
  void Record(const TraceEvent& event);

  // Copies every retained event with ts_nanos >= min_ts_nanos out of all
  // rings (live and dead threads alike), sorted by timestamp. Safe to call
  // concurrently with recorders; slots being overwritten mid-copy are
  // skipped, never torn.
  std::vector<TraceEvent> Snapshot(uint64_t min_ts_nanos = 0) const;

  // Logically drops everything recorded so far by advancing a timestamp
  // watermark (rings are single-writer, so another thread cannot scrub
  // them in place). Reads the clock once.
  void Clear();

  // Capacity (power of two) for rings created after this call — a test
  // hook for exercising wraparound without generating 8k events. Existing
  // rings keep their size; recycled rings with a stale capacity are
  // replaced.
  void SetRingCapacityForTest(size_t capacity);

 private:
  class Ring;
  struct ThreadSlot;

  Ring* RingForThisThread();
  void ReleaseRing(Ring* ring);

  std::atomic<size_t> ring_capacity_{kDefaultRingCapacity};
  std::atomic<uint64_t> min_visible_ts_{0};  // Clear() watermark.

  mutable Mutex mu_;
  std::vector<std::shared_ptr<Ring>> rings_ GUARDED_BY(mu_);
  std::vector<Ring*> free_rings_ GUARDED_BY(mu_);
};

}  // namespace monkeydb

#endif  // MONKEYDB_OBS_FLIGHT_RECORDER_H_
