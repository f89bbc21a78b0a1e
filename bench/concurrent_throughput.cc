// Concurrent throughput: does the read path actually scale once it no
// longer takes the big lock?
//
// Compares two regimes over the same data and the same simulated device
// (LatencyEnv: every data-page read costs fixed wall-clock time, making
// lookups I/O-bound like on real storage):
//   serialized  — every operation wrapped in one external mutex, emulating
//                 the pre-decoupling engine that held mu_ across filter
//                 probes and block reads;
//   concurrent  — the lock-free read path (and, for the mixed workload,
//                 background_compaction=true so flushes/merges run off the
//                 writer thread).
// Reports aggregate lookup throughput at 1/2/4/8 reader threads for a
// read-only and a mixed (1 writer + N readers) workload, and writes
// BENCH_concurrent.json.
//
// A third section measures the write path: 1/2/4/8 writer threads doing
// Puts over disjoint key ranges, with and without sync, against a device
// where every WAL append (and fsync) costs wall-clock time. The serialized
// arm wraps each Put in one external mutex — every write commits alone,
// like the pre-group-commit engine — while the concurrent arm lets the
// writer queue coalesce pending batches into one append (and one fsync)
// per group. Results go to BENCH_write.json.
//
// A fourth section opens the same workload on a real filesystem through
// the backend chosen by --io-backend={posix,uring} and measures concurrent
// MultiGet(16) throughput at 1/2/4/8 threads, with per-batch latency
// percentiles and syscalls per lookup from the counting env. Results go to
// BENCH_io_concurrent.json.
//
// Pass --smoke for a tiny CI-sized run of all sections.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "io/latency_env.h"
#include "obs/histogram.h"

namespace monkeydb {
namespace bench {
namespace {

constexpr auto kReadLatency = std::chrono::microseconds(50);
// Device model for the write section: each WAL append costs 20us of
// wall-clock time and each fsync 200us, so commit cost — not CPU — is what
// the write path amortizes.
constexpr auto kWriteLatency = std::chrono::microseconds(20);
constexpr auto kSyncLatency = std::chrono::microseconds(200);
const int kThreadCounts[] = {1, 2, 4, 8};

// Workload sizes; --smoke shrinks them for CI.
int g_num_keys = 20000;
int g_reads_per_thread = 1200;
int g_writes_per_thread = 600;
int g_io_num_keys = 20000;
int g_io_batches_per_thread = 150;
constexpr int kIoMultiGetBatch = 16;
// --json: build every DB with enable_metrics and dump the read-path and
// mixed-path histogram snapshots to BENCH_obs.json at exit.
bool g_emit_obs = false;

struct LatencyDb {
  std::unique_ptr<Env> base_env;
  std::unique_ptr<LatencyEnv> env;
  std::unique_ptr<DB> db;
};

LatencyDb BuildDb(bool background) {
  LatencyDb t;
  t.base_env = NewMemEnv();
  t.env = std::make_unique<LatencyEnv>(t.base_env.get(), kReadLatency);

  DbOptions options;
  options.env = t.env.get();
  options.merge_policy = MergePolicy::kLeveling;
  options.size_ratio = 4.0;
  options.buffer_size_bytes = 64 << 10;
  options.bits_per_entry = 5.0;
  options.page_size = kPageSize;
  options.expected_entries = g_num_keys;
  options.background_compaction = background;
  options.enable_metrics = g_emit_obs;

  Status s = DB::Open(options, "/db", &t.db);
  if (!s.ok()) {
    fprintf(stderr, "Open failed: %s\n", s.ToString().c_str());
    abort();
  }
  WriteOptions wo;
  const std::string value(48, 'v');
  for (int i = 0; i < g_num_keys; i++) {
    const std::string key = MakeKey(i);
    s = t.db->Put(wo, key, value);
    if (!s.ok()) abort();
  }
  if (!t.db->Flush().ok()) abort();
  return t;
}

// Aggregate existing-key lookups/sec with `threads` reader threads. When
// serialize is set, every Get runs under one shared mutex (the old engine's
// behavior); otherwise Gets run truly concurrently.
double MeasureReadThroughput(DB* db, int threads, bool serialize,
                             std::mutex* big_lock,
                             std::atomic<int>* errors) {
  std::vector<std::thread> workers;
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < threads; t++) {
    workers.emplace_back([&, t] {
      Random rng(1000 + t);
      ReadOptions ro;
      std::string value;
      for (int i = 0; i < g_reads_per_thread; i++) {
        const std::string key = MakeKey(rng.Uniform(g_num_keys));
        Status s;
        if (serialize) {
          std::lock_guard<std::mutex> guard(*big_lock);
          s = db->Get(ro, key, &value);
        } else {
          s = db->Get(ro, key, &value);
        }
        if (!s.ok()) errors->fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return static_cast<double>(threads) * g_reads_per_thread / secs;
}

// Same measurement with one churn writer running alongside the readers.
// The serialized arm routes the writer through the same mutex, so inline
// flushes/merges stall every reader — exactly what the seed engine did.
double MeasureMixedThroughput(DB* db, int threads, bool serialize,
                              std::mutex* big_lock,
                              std::atomic<int>* errors) {
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    WriteOptions wo;
    const std::string value(32, 'c');
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string key = "churn" + std::to_string(i++);
      Status s;
      if (serialize) {
        std::lock_guard<std::mutex> guard(*big_lock);
        s = db->Put(wo, key, value);
      } else {
        s = db->Put(wo, key, value);
      }
      if (!s.ok()) {
        errors->fetch_add(1);
        break;
      }
    }
  });
  const double ops_per_sec =
      MeasureReadThroughput(db, threads, serialize, big_lock, errors);
  stop.store(true);
  writer.join();
  return ops_per_sec;
}

// Empty DB on a device where WAL appends and fsyncs cost wall-clock time.
// Background compaction keeps flushes/merges off the writer threads, so the
// measurement isolates the commit path.
LatencyDb BuildWriteDb() {
  LatencyDb t;
  t.base_env = NewMemEnv();
  t.env = std::make_unique<LatencyEnv>(t.base_env.get(),
                                       std::chrono::microseconds(0),
                                       kWriteLatency, kSyncLatency);

  DbOptions options;
  options.env = t.env.get();
  options.merge_policy = MergePolicy::kLeveling;
  options.size_ratio = 4.0;
  options.buffer_size_bytes = 64 << 10;
  options.bits_per_entry = 5.0;
  options.page_size = kPageSize;
  options.expected_entries = g_num_keys;
  options.background_compaction = true;
  options.enable_metrics = g_emit_obs;

  Status s = DB::Open(options, "/db", &t.db);
  if (!s.ok()) {
    fprintf(stderr, "Open failed: %s\n", s.ToString().c_str());
    abort();
  }
  return t;
}

// Aggregate Puts/sec with `threads` writer threads over disjoint key
// ranges. The serialized arm holds one external mutex across each Put, so
// every write pays the full append(+fsync) alone; the concurrent arm lets
// the group-commit leader batch whatever queued behind it. `round` keeps
// key ranges distinct across measurements on the same DB.
double MeasureWriteThroughput(DB* db, int threads, bool serialize, bool sync,
                              std::mutex* big_lock, std::atomic<int>* errors,
                              int round) {
  std::vector<std::thread> workers;
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < threads; t++) {
    workers.emplace_back([&, t] {
      WriteOptions wo;
      wo.sync = sync;
      const std::string value(48, 'w');
      const std::string prefix =
          "w" + std::to_string(round) + "_" + std::to_string(t) + "_";
      for (int i = 0; i < g_writes_per_thread; i++) {
        const std::string key = prefix + std::to_string(i);
        Status s;
        if (serialize) {
          std::lock_guard<std::mutex> guard(*big_lock);
          s = db->Put(wo, key, value);
        } else {
          s = db->Put(wo, key, value);
        }
        if (!s.ok()) {
          errors->fetch_add(1);
          break;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return static_cast<double>(threads) * g_writes_per_thread / secs;
}

// --- Section 4: concurrent MultiGet on a real filesystem backend ---------

struct IoConcurrentRow {
  int threads = 0;
  double lookups_per_sec = 0;
  double syscalls_per_lookup = 0;
  double batched_per_syscall = 0;
  HistogramData batch_latency_us;
};

// `threads` threads each issue g_io_batches_per_thread MultiGet(16)
// batches of existing keys; per-batch latency lands in one shared
// (lock-free) histogram and syscalls come from the stats delta.
IoConcurrentRow MeasureIoConcurrent(IoBackendDb* db, int threads) {
  Histogram hist;
  std::atomic<int> errors{0};
  const auto before = db->stats->Snapshot();
  std::vector<std::thread> workers;
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < threads; t++) {
    workers.emplace_back([&, t] {
      Random rng(7000 + 131 * threads + t);
      ReadOptions ro;
      for (int b = 0; b < g_io_batches_per_thread; b++) {
        std::vector<std::string> key_storage;
        key_storage.reserve(kIoMultiGetBatch);
        for (int i = 0; i < kIoMultiGetBatch; i++) {
          key_storage.push_back(MakeKey(rng.Uniform(g_io_num_keys)));
        }
        std::vector<Slice> keys(key_storage.begin(), key_storage.end());
        std::vector<std::string> values;
        const auto batch_start = std::chrono::steady_clock::now();
        for (const Status& s : db->db->MultiGet(ro, keys, &values)) {
          if (!s.ok()) errors.fetch_add(1);
        }
        hist.Record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - batch_start)
                .count()));
      }
    });
  }
  for (auto& w : workers) w.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (errors.load() != 0) {
    fprintf(stderr, "%d MultiGet lookup(s) failed\n", errors.load());
    abort();
  }
  const auto delta = db->stats->Snapshot() - before;
  const double lookups = static_cast<double>(threads) *
                         g_io_batches_per_thread * kIoMultiGetBatch;

  IoConcurrentRow row;
  row.threads = threads;
  row.lookups_per_sec = lookups / secs;
  row.syscalls_per_lookup = static_cast<double>(delta.read_calls) / lookups;
  row.batched_per_syscall =
      delta.batch_reads == 0
          ? 0.0
          : static_cast<double>(delta.batch_read_requests) /
                static_cast<double>(delta.batch_reads);
  HistogramMerger merger;
  merger.Add(hist);
  row.batch_latency_us = merger.Snapshot();
  return row;
}

}  // namespace
}  // namespace bench
}  // namespace monkeydb

int main(int argc, char** argv) {
  using namespace monkeydb;
  using namespace monkeydb::bench;

  g_emit_obs = ConsumeJsonFlag(&argc, argv);
  const std::string io_backend = ConsumeIoBackendFlag(&argc, argv);
  for (int i = 1; i < argc; i++) {
    if (std::string(argv[i]) == "--smoke") {
      g_num_keys = 2000;
      g_reads_per_thread = 120;
      g_writes_per_thread = 60;
      g_io_num_keys = 5000;
      g_io_batches_per_thread = 25;
    }
  }

  printf("Concurrent throughput: serialized (one big lock) vs decoupled\n");
  printf("read path, %d keys, %lld us simulated read latency\n\n",
         g_num_keys, static_cast<long long>(kReadLatency.count()));

  std::atomic<int> errors{0};
  std::mutex big_lock;

  // Read-only: the same synchronous DB, with and without the external
  // serialization — isolates the read-path change.
  LatencyDb read_db = BuildDb(/*background=*/false);
  struct Row {
    int threads;
    double serialized, concurrent;
  };
  std::vector<Row> read_rows, mixed_rows;

  printf("%-22s %8s %14s %14s %9s\n", "workload", "threads", "serialized",
         "concurrent", "speedup");
  for (int threads : kThreadCounts) {
    Row row{threads, 0, 0};
    row.serialized = MeasureReadThroughput(read_db.db.get(), threads,
                                           /*serialize=*/true, &big_lock,
                                           &errors);
    row.concurrent = MeasureReadThroughput(read_db.db.get(), threads,
                                           /*serialize=*/false, &big_lock,
                                           &errors);
    read_rows.push_back(row);
    printf("%-22s %8d %12.0f/s %12.0f/s %8.2fx\n", "read-only", threads,
           row.serialized, row.concurrent, row.concurrent / row.serialized);
  }

  // Mixed: serialized arm = synchronous DB behind the big lock (writers
  // compact inline while readers wait); concurrent arm = background
  // compaction, no external lock.
  LatencyDb mixed_serialized = BuildDb(/*background=*/false);
  LatencyDb mixed_concurrent = BuildDb(/*background=*/true);
  for (int threads : kThreadCounts) {
    Row row{threads, 0, 0};
    row.serialized =
        MeasureMixedThroughput(mixed_serialized.db.get(), threads,
                               /*serialize=*/true, &big_lock, &errors);
    row.concurrent =
        MeasureMixedThroughput(mixed_concurrent.db.get(), threads,
                               /*serialize=*/false, &big_lock, &errors);
    mixed_rows.push_back(row);
    printf("%-22s %8d %12.0f/s %12.0f/s %8.2fx\n", "mixed (1 writer)",
           threads, row.serialized, row.concurrent,
           row.concurrent / row.serialized);
  }

  // Write scaling: group commit vs one-writer-at-a-time, with and without
  // per-commit fsync. Each (arm, sync-mode) pair gets its own DB so the
  // arms never share LSM state.
  printf("\nWrite path: %lld us/WAL append, %lld us/fsync\n",
         static_cast<long long>(kWriteLatency.count()),
         static_cast<long long>(kSyncLatency.count()));
  std::vector<Row> write_nosync_rows, write_sync_rows;
  int round = 0;
  for (bool sync : {false, true}) {
    LatencyDb serialized_db = BuildWriteDb();
    LatencyDb concurrent_db = BuildWriteDb();
    std::vector<Row>& rows = sync ? write_sync_rows : write_nosync_rows;
    for (int threads : kThreadCounts) {
      Row row{threads, 0, 0};
      row.serialized = MeasureWriteThroughput(serialized_db.db.get(),
                                              threads, /*serialize=*/true,
                                              sync, &big_lock, &errors,
                                              round++);
      row.concurrent = MeasureWriteThroughput(concurrent_db.db.get(),
                                              threads, /*serialize=*/false,
                                              sync, &big_lock, &errors,
                                              round++);
      rows.push_back(row);
      printf("%-22s %8d %12.0f/s %12.0f/s %8.2fx\n",
             sync ? "write (sync)" : "write (no-sync)", threads,
             row.serialized, row.concurrent,
             row.concurrent / row.serialized);
    }
  }

  if (errors.load() != 0) {
    fprintf(stderr, "\n%d operation(s) failed\n", errors.load());
    return 1;
  }

  auto dump_rows = [](BenchJsonWriter* w, const char* name,
                      const std::vector<Row>& rows) {
    w->BeginArray(name);
    for (const Row& row : rows) {
      w->BeginObject();
      w->Field("threads", row.threads);
      w->Field("serialized_ops_per_sec", row.serialized);
      w->Field("concurrent_ops_per_sec", row.concurrent);
      w->Field("speedup", row.concurrent / row.serialized);
      w->EndObject();
    }
    w->EndArray();
  };

  {
    BenchJsonWriter w("concurrent_throughput");
    w.Config("num_keys", g_num_keys);
    w.Config("read_latency_us",
             static_cast<long long>(kReadLatency.count()));
    w.Config("reads_per_thread", g_reads_per_thread);
    dump_rows(&w, "read_only", read_rows);
    dump_rows(&w, "mixed", mixed_rows);
    printf("\n");
    w.WriteFile("BENCH_concurrent.json");
  }

  // Concurrent MultiGet on a real filesystem through the chosen backend.
  {
    printf("\nReal-filesystem concurrent MultiGet(%d), --io-backend=%s "
           "(%d keys, %d batches/thread):\n\n",
           kIoMultiGetBatch, io_backend.c_str(), g_io_num_keys,
           g_io_batches_per_thread);
    printf("%8s %14s %14s %12s %10s %10s\n", "threads", "lookups/sec",
           "syscalls/op", "reqs/batch", "p99 (us)", "p99.9 (us)");

    FillSpec io_spec;
    io_spec.num_keys = g_io_num_keys;
    io_spec.block_cache_bytes = 64 << 10;
    const std::string dir =
        "/tmp/monkeydb_bench_io_concurrent." +
        std::to_string(static_cast<long long>(getpid()));
    IoBackendDb io_db = OpenIoBackendDb(io_backend, dir, io_spec);

    std::vector<IoConcurrentRow> io_rows;
    for (int threads : kThreadCounts) {
      io_rows.push_back(MeasureIoConcurrent(&io_db, threads));
      const IoConcurrentRow& row = io_rows.back();
      printf("%8d %12.0f/s %14.2f %12.2f %10.0f %10.0f\n", row.threads,
             row.lookups_per_sec, row.syscalls_per_lookup,
             row.batched_per_syscall, row.batch_latency_us.p99,
             row.batch_latency_us.p999);
    }
    const std::string actual_backend = io_db.actual;
    DestroyIoBackendDb(&io_db);

    BenchJsonWriter w("concurrent_throughput");
    w.Config("requested_backend", io_backend);
    w.Config("backend", actual_backend);
    w.Config("num_keys", g_io_num_keys);
    w.Config("multiget_batch", kIoMultiGetBatch);
    w.Config("batches_per_thread", g_io_batches_per_thread);
    w.BeginArray("rows");
    for (const IoConcurrentRow& row : io_rows) {
      w.BeginObject();
      w.Field("threads", row.threads);
      w.Field("lookups_per_sec", row.lookups_per_sec);
      w.Field("syscalls_per_lookup", row.syscalls_per_lookup);
      w.Field("batched_per_syscall", row.batched_per_syscall);
      w.Histogram("batch_latency_us", row.batch_latency_us);
      w.EndObject();
    }
    w.EndArray();
    printf("\n");
    w.WriteFile("BENCH_io_concurrent.json");
  }

  {
    BenchJsonWriter w("concurrent_throughput");
    w.Config("write_latency_us",
             static_cast<long long>(kWriteLatency.count()));
    w.Config("sync_latency_us",
             static_cast<long long>(kSyncLatency.count()));
    w.Config("writes_per_thread", g_writes_per_thread);
    dump_rows(&w, "write_nosync", write_nosync_rows);
    dump_rows(&w, "write_sync", write_sync_rows);
    w.WriteFile("BENCH_write.json");
  }

  // Histogram snapshots from the instrumented DBs: the read-only DB saw
  // pure Get traffic, the concurrent mixed DB also saw flushes/merges and
  // (possibly) stalls, so both breakdowns are worth keeping.
  if (g_emit_obs) {
    BenchJsonWriter w("concurrent_throughput");
    w.RawField("read_only_db",
               read_db.db->DumpMetrics(DB::MetricsFormat::kJson));
    w.RawField("mixed_db",
               mixed_concurrent.db->DumpMetrics(DB::MetricsFormat::kJson));
    w.WriteFile("BENCH_obs.json");
  }
  return 0;
}
