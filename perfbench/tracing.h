// Benchmark-owned tracing for the per-layer run.
//
// The traced run opens the engine with wrappers around its public
// extension points — Env / RandomAccessFile / WritableFile, Comparator,
// FprAllocationPolicy and EventListener — and the client code wraps every
// operation (and every RespClient send/receive) in spans. Nothing here
// reads the engine's own spans or PerfContext timers, so the layer numbers
// stay put when the engine's instrumentation changes.
//
// Spans nest per thread: a client operation is a root span; wrapper spans
// opened on the same thread while it runs are its descendants. A span's
// self time is its duration minus its children's; each operation type
// accumulates self time per span kind, so for every operation type
//   sum over kinds of self time == total operation time
// which CheckTrace verifies together with the nesting rules. Spans opened on
// threads with no root (the read pool, the server's event loop, set-up)
// land in the background bucket.

#ifndef MONKEYDB_PERFBENCH_TRACING_H_
#define MONKEYDB_PERFBENCH_TRACING_H_

#include <cstdint>
#include <memory>
#include <string>

#include "io/env.h"
#include "lsm/fpr_policy.h"
#include "obs/event_listener.h"
#include "util/comparator.h"

namespace perfbench {

enum SpanKind : int {
  kRoot,          // The client operation itself.
  kIoRead,        // RandomAccessFile::Read, SequentialFile::Read.
  kIoReadBatch,   // RandomAccessFile::ReadBatch.
  kIoWrite,       // WritableFile::Append / Flush / Close.
  kIoSync,        // WritableFile::Sync.
  kFlushJob,      // EventListener flush begin .. completed.
  kMergeJob,      // EventListener compaction begin .. completed.
  kAlloc,         // FprAllocationPolicy::RunFpr.
  kRespSend,      // RespClient::SendRaw.
  kRespRecv,      // RespClient::ReadReply.
  kNumKinds
};

enum OpType : int {
  kOpGet,
  kOpMultiGet,
  kOpPut,
  kOpScan,
  kOpRespGet,    // Depth-1 GET round trip.
  kOpRespSet,    // Depth-1 SET round trip.
  kOpRespBatch,  // Depth-16 pipelined batch.
  kNumOps
};
constexpr int kBackground = kNumOps;

const char* SpanKindName(int kind);

// What the wrappers saw under one operation type (or in the background).
struct OpAgg {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns[kNumKinds] = {};
  uint64_t comp_ns = 0;   // Inside outermost flush/merge spans.
  uint64_t merge_ns = 0;  // Inside outermost merge spans.
  uint64_t outside_comp_ns[kNumKinds] = {};  // Span time not under either.
  uint64_t reads = 0;  // Read calls plus ReadBatch submissions.
  uint64_t read_bytes = 0;
  uint64_t read_batches = 0;
  uint64_t wal_bytes = 0;
  uint64_t table_bytes = 0;
  uint64_t other_bytes = 0;
  uint64_t syncs = 0;
  uint64_t compares = 0;
  uint64_t allocs = 0;

  void Add(const OpAgg& o);
  uint64_t IoNs() const {
    return self_ns[kIoRead] + self_ns[kIoReadBatch] + self_ns[kIoWrite] +
           self_ns[kIoSync];
  }
  uint64_t SelfSum() const;
};

struct TraceTotals {
  OpAgg ops[kNumOps + 1];  // Index kBackground = no client op.
  uint64_t violations = 0;  // Negative self time or a span outside its parent.
  uint64_t stall_ns = 0;

  OpAgg All() const;
};

// Zeroes every thread's aggregates. Call only while no span is open.
void ResetTrace();
// Sums every thread's aggregates. Call only while no span is open.
TraceTotals CollectTrace();
// The layer-sum reconciliation: no violations, and for every operation
// type and the background bucket, self times sum to the total. Returns an
// empty string or the first mismatch.
std::string CheckTrace(const TraceTotals& t);

class Span {
 public:
  explicit Span(SpanKind kind);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanKind kind_;
};

// Root span of one client operation; a no-op when !enabled.
class OpSpan {
 public:
  OpSpan(bool enabled, OpType op);
  ~OpSpan();
  OpSpan(const OpSpan&) = delete;
  OpSpan& operator=(const OpSpan&) = delete;

 private:
  bool enabled_;
};

// The wrapped extension points. Each forwards every virtual of its base.
std::unique_ptr<monkeydb::Env> NewTracingEnv(monkeydb::Env* base);
std::unique_ptr<monkeydb::Comparator> NewCountingComparator(
    const monkeydb::Comparator* base);
std::shared_ptr<const monkeydb::FprAllocationPolicy> NewTimedPolicy(
    std::shared_ptr<const monkeydb::FprAllocationPolicy> base);
std::shared_ptr<monkeydb::EventListener> NewSpanListener();

}  // namespace perfbench

#endif  // MONKEYDB_PERFBENCH_TRACING_H_
