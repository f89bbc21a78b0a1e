// Engine configuration shared by the workloads, the traced-store wrappers,
// and the per-layer metrics.

#include <cstdio>

#include "io/env.h"
#include "workloads.h"

namespace perfbench {

monkeydb::DbOptions BaseDbOptions() {
  monkeydb::DbOptions o;
  o.env = monkeydb::GetPosixEnv();
  o.sync_writes = false;
  o.background_compaction = false;
  // MultiGet reads its blocks on the calling thread. With the default pool
  // of 4 read threads, the pool's wake-ups on a shared 4-vCPU host set both
  // the level and the spread of every number that includes a MultiGet:
  // point_read ops/s spread 0.47 of the median over 10 seeds with the pool,
  // and its MultiGet p50 was 165 us against 110 us without it.
  o.read_io_threads = 0;
  return o;
}

void Instrumentation::Apply(monkeydb::DbOptions* o) {
  env_ = NewTracingEnv(o->env != nullptr ? o->env : monkeydb::GetPosixEnv());
  o->env = env_.get();
  comparator_ = NewCountingComparator(o->comparator != nullptr
                                          ? o->comparator
                                          : monkeydb::BytewiseComparator());
  o->comparator = comparator_.get();
  o->fpr_policy = NewTimedPolicy(
      o->fpr_policy != nullptr
          ? o->fpr_policy
          : std::make_shared<monkeydb::UniformFprPolicy>());
  o->listeners.push_back(NewSpanListener());
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void EmitLayerMetrics(const LayerInputs& in, Report* r) {
  const TraceTotals& t = in.trace;
  const OpAgg all = t.All();
  const OpAgg& get = t.ops[kOpGet];
  const OpAgg& put = t.ops[kOpPut];
  const OpAgg& scan = t.ops[kOpScan];
  const OpAgg& mget = t.ops[kOpMultiGet];
  const monkeydb::DbStats& s = in.stats;
  const double embedded_ops = get.count + mget.count + put.count + scan.count;
  const double read_ns = all.self_ns[kIoRead] + all.self_ns[kIoReadBatch];
  const double written = all.wal_bytes + all.table_bytes + all.other_bytes;

  // io: Env / RandomAccessFile / WritableFile wrappers and the block cache.
  r->Metric("io.read_calls_per_op", Ratio(all.reads, embedded_ops), "count");
  r->Metric("io.read_us_per_op", Ratio(read_ns / 1e3, embedded_ops), "us");
  r->Metric("io.read_bytes_per_op", Ratio(all.read_bytes, embedded_ops), "B");
  r->Metric("io.batch_reads_per_multiget",
            Ratio(all.read_batches, mget.count), "count");
  r->Metric("io.block_cache_hit_ratio",
            Ratio(in.cache_hits, in.cache_hits + in.cache_misses), "ratio");
  r->Metric("io.append_us_per_put",
            Ratio(put.outside_comp_ns[kIoWrite] / 1e3, put.count), "us");
  r->Metric("io.sync_calls", all.syncs, "count");
  r->Metric("io.sync_us_per_put", Ratio(put.self_ns[kIoSync] / 1e3, put.count),
            "us");
  r->Metric("io.write_bytes_per_user_byte", Ratio(written, in.user_bytes_put),
            "ratio");
  r->Metric("io.wal_bytes_per_user_byte",
            Ratio(all.wal_bytes, in.user_bytes_put), "ratio");
  r->Metric("io.table_bytes_per_user_byte",
            Ratio(all.table_bytes, in.user_bytes_put), "ratio");
  r->Metric("io.read_calls_per_cmd", Ratio(all.reads, in.commands), "count");
  r->Metric("io.read_us_per_cmd", Ratio(read_ns / 1e3, in.commands), "us");

  // bloom: DbStats probe counters.
  r->Metric("bloom.fp_per_zero_result_get", in.zero_result_fp, "count");
  r->Metric("bloom.useful_ratio",
            Ratio(s.filter_negatives, s.filter_negatives + s.runs_probed),
            "ratio");

  // lsm: read view, write groups, flush/merge cascade (listener spans).
  r->Metric("lsm.runs_probed_per_get", Ratio(s.runs_probed, s.gets), "count");
  r->Metric("lsm.get_cpu_us",
            Ratio((double(get.total_ns) - get.IoNs()) / 1e3, get.count), "us");
  r->Metric("lsm.batches_per_write_group",
            Ratio(s.write_group_batches, s.write_groups), "count");
  uint64_t put_io_ns = 0;
  for (int k : {kIoRead, kIoReadBatch, kIoWrite, kIoSync}) {
    put_io_ns += put.outside_comp_ns[k];
  }
  r->Metric("lsm.put_wait_us",
            Ratio((double(put.total_ns) - put_io_ns - put.comp_ns) / 1e3,
                  put.count),
            "us");
  r->Metric("lsm.flushes", s.flushes, "count");
  r->Metric("lsm.flush_busy_s", (double(all.comp_ns) - all.merge_ns) / 1e9, "s");
  r->Metric("lsm.merges", s.merges, "count");
  r->Metric("lsm.merge_busy_s", all.merge_ns / 1e9, "s");
  r->Metric("lsm.entries_compacted_per_put",
            Ratio(s.entries_compacted, in.puts), "count");
  r->Metric("lsm.foreground_compaction_share",
            Ratio(put.comp_ns, put.total_ns), "ratio");
  r->Metric("lsm.stall_s", t.stall_ns / 1e9, "s");
  r->Metric("lsm.levels", s.deepest_level, "count");
  r->Metric("lsm.runs", s.total_runs, "count");

  // util: the counting comparator, per calling operation.
  r->Metric("util.compares_per_get", Ratio(get.compares, get.count), "count");
  r->Metric("util.compares_per_put", Ratio(put.compares, put.count), "count");
  r->Metric("util.compares_per_scan", Ratio(scan.compares, scan.count),
            "count");

  // monkey: the wrapped allocation policy.
  r->Metric("monkey.alloc_calls", all.allocs, "count");
  r->Metric("monkey.alloc_us", all.self_ns[kAlloc] / 1e3, "us");

  // server: MonkeyServer counters and its GET histogram.
  r->Metric("server.engine_calls_per_cmd",
            Ratio(in.engine_calls, in.commands), "count");
  r->Metric("server.exec_us_p50", in.server_exec_p50_us, "us");
  r->Metric("server.outside_exec_us_p50",
            in.commands > 0 ? in.resp_get_p50_us - in.server_exec_p50_us : 0,
            "us");

  // trace: what the wrappers cost and how much of op time they explain.
  uint64_t op_ns = 0;
  uint64_t op_self_ns = 0;
  for (int op = 0; op < kNumOps; op++) {
    op_ns += t.ops[op].total_ns;
    op_self_ns += t.ops[op].self_ns[kRoot];
  }
  r->Metric("trace.overhead_pct",
            100 * Ratio(in.untraced_ops_per_s - in.traced_ops_per_s,
                        in.untraced_ops_per_s),
            "%");
  r->Metric("trace.attributed_share", Ratio(double(op_ns) - op_self_ns, op_ns),
            "ratio");
  r->Metric("trace.span_violations", t.violations, "count");

  for (int op = 0; op <= kNumOps; op++) {
    const OpAgg& a = t.ops[op];
    if (a.count == 0) continue;
    std::string line = "trace op " + std::to_string(op) + ": count " +
                       std::to_string(a.count) + ", total " +
                       std::to_string(a.total_ns / 1000) + " us =";
    for (int k = 0; k < kNumKinds; k++) {
      if (a.self_ns[k] == 0) continue;
      line += ' ';
      line += SpanKindName(k);
      line += ' ';
      line += std::to_string(a.self_ns[k] / 1000);
    }
    fprintf(stderr, "%s\n", line.c_str());
  }
  const std::string mismatch = CheckTrace(t);
  if (!mismatch.empty()) r->Fail("layer-sum reconciliation: " + mismatch);
}

}  // namespace perfbench
