// The benchmark's workloads and the pieces they share.

#ifndef MONKEYDB_PERFBENCH_WORKLOADS_H_
#define MONKEYDB_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "bench.h"
#include "lsm/db.h"
#include "lsm/options.h"
#include "tracing.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;  // Scratch directory for the stores; created and removed.
};

// Operations attempted and failed (a failure is an error status or an
// output that does not verify).
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Add(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
};

// The engine configuration every workload starts from: real files through
// the POSIX Env (never the io_uring backend or an environment override),
// synchronous compaction in the writer, no fsync per write.
monkeydb::DbOptions BaseDbOptions();

// Wrappers of one traced store. Apply() swaps them into the options; the
// object must outlive the store.
class Instrumentation {
 public:
  void Apply(monkeydb::DbOptions* options);

 private:
  std::unique_ptr<monkeydb::Env> env_;
  std::unique_ptr<monkeydb::Comparator> comparator_;
};

// Everything the per-layer metrics are computed from; workloads fill what
// they have and leave the rest zero (the metric then reads 0).
struct LayerInputs {
  TraceTotals trace;
  monkeydb::DbStats stats;  // Counters over the traced phase.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t user_bytes_put = 0;  // Traced phase.
  uint64_t puts = 0;            // Traced phase (embedded Puts or RESP SETs).
  uint64_t commands = 0;        // RESP commands in the traced phase.
  uint64_t engine_calls = 0;    // MonkeyServer engine calls, traced phase.
  double zero_result_fp = 0;    // Measured R (point_read only).
  double server_exec_p50_us = 0;
  double resp_get_p50_us = 0;   // Client-side depth-1 GET round trip.
  double untraced_ops_per_s = 0;
  double traced_ops_per_s = 0;
};

// Prints every per-layer metric, and fails the report if the layer-sum
// reconciliation does not hold.
void EmitLayerMetrics(const LayerInputs& in, Report* report);

// Runs one single-threaded seeded scenario plain, plain again and wrapped,
// and returns an empty string if the DbStats counters agree, else why not.
std::string CheckWrapperFidelity(const std::string& dir, uint64_t seed);

Tally RunPointRead(const Args& args, Report* report);
Tally RunIngestScan(const Args& args, Report* report);
Tally RunRespPipeline(const Args& args, Report* report);

}  // namespace perfbench

#endif  // MONKEYDB_PERFBENCH_WORKLOADS_H_
