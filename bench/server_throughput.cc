// Serving-layer throughput: closed-loop (N connections x pipeline depth
// D) and open-loop (fixed offered rate, latency from the server's own
// histograms) load against an in-process MonkeyServer over real sockets.
//
// What it demonstrates (and asserts, via the emitted JSON):
//  - Pipelining: at depth 16 the executor coalesces reads into MultiGet
//    batches and writes into group-committed WriteBatches, so engine
//    calls per command collapse well under the 0.2 acceptance bound.
//  - Loop scaling: server_threads event loops over the one DB serve
//    connections in parallel, at depth 1 and at depth 16. The JSON
//    reports hardware_threads so single-core CI results are read
//    honestly — loop scaling needs >= 4 cores to show.
//
// Results land in BENCH_server.json. Pass --smoke for the CI-sized run.

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "io/env.h"
#include "obs/histogram.h"
#include "server/resp_client.h"
#include "server/server.h"

namespace monkeydb {
namespace {

using Clock = std::chrono::steady_clock;

// Workload shapes. kGet pipelines coalesce into one MultiGet per batch — this is the arm the 0.2 engine-calls/command acceptance
// bound is measured on. kMixed alternates GET/SET randomly, so batches
// split at every read/write class boundary (expected run length ~2;
// the split preserves read-your-own-writes ordering) — kept as the
// honest worst-case realism arm, not held to the bound.
enum class Workload { kGet, kMixed };

struct RunResult {
  int threads = 0;
  int connections = 0;
  int depth = 0;
  Workload workload = Workload::kGet;
  uint64_t commands = 0;
  double seconds = 0;
  double ops_per_sec = 0;
  uint64_t engine_calls = 0;
  double engine_calls_per_command = 0;
};

struct OpenLoopResult {
  double offered_rate = 0;
  double achieved_rate = 0;
  HistogramData get_latency;
  HistogramData pipeline_depth;
};

std::unique_ptr<MonkeyServer> StartServer(Env* env, int threads,
                                          const std::string& dir) {
  ServerOptions opts;
  opts.server_port = 0;
  opts.server_threads = threads;
  opts.db_options.env = env;
  std::unique_ptr<MonkeyServer> server;
  Status s = MonkeyServer::Start(opts, dir, &server);
  if (!s.ok()) {
    fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    exit(1);
  }
  return server;
}

// One closed-loop worker: keeps `depth` commands in flight on one
// connection until `stop`, keys drawn uniformly from `keyspace`.
void ClosedLoopWorker(int port, int depth, int keyspace, int seed,
                      Workload workload, std::atomic<bool>* stop,
                      std::atomic<uint64_t>* completed) {
  RespClient client;
  if (!client.Connect("127.0.0.1", port).ok()) return;
  uint64_t rng = 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(seed + 1);
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  std::string batch;
  RespReply reply;
  while (!stop->load(std::memory_order_relaxed)) {
    batch.clear();
    for (int i = 0; i < depth; ++i) {
      const std::string key =
          "bench" + std::to_string(next() % static_cast<uint64_t>(keyspace));
      if (workload == Workload::kGet || next() % 2 == 0) {
        RespClient::EncodeCommand({"GET", key}, &batch);
      } else {
        RespClient::EncodeCommand({"SET", key, "value-payload-64b"},
                                  &batch);
      }
    }
    if (!client.SendRaw(batch).ok()) return;
    for (int i = 0; i < depth; ++i) {
      if (!client.ReadReply(&reply).ok()) return;
    }
    completed->fetch_add(static_cast<uint64_t>(depth),
                         std::memory_order_relaxed);
  }
}

RunResult ClosedLoop(Env* env, const std::string& dir, int threads,
                     int connections, int depth, int keyspace,
                     Workload workload, double seconds) {
  auto server = StartServer(env, threads, dir);
  // Preload so GETs hit.
  {
    RespClient client;
    if (!client.Connect("127.0.0.1", server->port()).ok()) exit(1);
    std::string batch;
    for (int i = 0; i < keyspace; ++i) {
      RespClient::EncodeCommand(
          {"SET", "bench" + std::to_string(i), "value-payload-64b"},
          &batch);
    }
    if (!client.SendRaw(batch).ok()) exit(1);
    RespReply r;
    for (int i = 0; i < keyspace; ++i) {
      if (!client.ReadReply(&r).ok()) exit(1);
    }
  }
  const auto preload_calls = server->engine_calls().Total();
  const auto preload_commands = server->commands_processed();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0};
  std::vector<std::thread> workers;
  const auto start = Clock::now();
  for (int i = 0; i < connections; ++i) {
    workers.emplace_back(ClosedLoopWorker, server->port(), depth, keyspace,
                         i, workload, &stop, &completed);
  }
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(seconds * 1000)));
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  RunResult result;
  result.threads = threads;
  result.connections = connections;
  result.depth = depth;
  result.workload = workload;
  result.commands = completed.load();
  result.seconds = elapsed;
  result.ops_per_sec = static_cast<double>(result.commands) / elapsed;
  result.engine_calls = server->engine_calls().Total() - preload_calls;
  const uint64_t commands_seen =
      server->commands_processed() - preload_commands;
  result.engine_calls_per_command =
      commands_seen == 0 ? 0.0
                         : static_cast<double>(result.engine_calls) /
                               static_cast<double>(commands_seen);
  server->Stop();
  return result;
}

// Open-loop: offered load at a fixed rate (batches of `depth` GETs every
// interval), latency read from the server's own per-command histograms
// (recorded dispatch -> reply-buffered, so it excludes client think
// time). The reader drains asynchronously so a latency spike does not
// throttle the offered rate — the open-loop point of measurement.
OpenLoopResult OpenLoop(Env* env, const std::string& dir, double rate,
                        int depth, int keyspace, double seconds) {
  auto server = StartServer(env, 1, dir);
  {
    RespClient client;
    if (!client.Connect("127.0.0.1", server->port()).ok()) exit(1);
    RespReply r;
    for (int i = 0; i < keyspace; ++i) {
      if (!client
               .Command({"SET", "bench" + std::to_string(i),
                         "value-payload-64b"},
                        &r)
               .ok()) {
        exit(1);
      }
    }
  }
  server->metrics()->Reset();

  RespClient sender;
  if (!sender.Connect("127.0.0.1", server->port()).ok()) exit(1);
  std::atomic<bool> reader_stop{false};
  std::atomic<uint64_t> replies{0};
  // Drain replies on a second thread sharing the socket: the sender
  // thread only writes and this thread only reads (send/recv touch
  // disjoint client state), so a latency spike never throttles the
  // offered rate — the open-loop point of measurement.
  std::thread reader([&] {
    RespReply r;
    while (!reader_stop.load(std::memory_order_relaxed)) {
      if (!sender.ReadReply(&r).ok()) return;
      replies.fetch_add(1, std::memory_order_relaxed);
    }
  });

  const auto interval = std::chrono::duration<double>(
      static_cast<double>(depth) / rate);
  const auto start = Clock::now();
  uint64_t sent = 0;
  uint64_t rng = 12345;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  auto deadline = start + interval;
  while (std::chrono::duration<double>(Clock::now() - start).count() <
         seconds) {
    std::string batch;
    for (int i = 0; i < depth; ++i) {
      RespClient::EncodeCommand(
          {"GET",
           "bench" +
               std::to_string(next() % static_cast<uint64_t>(keyspace))},
          &batch);
    }
    if (!sender.SendRaw(batch).ok()) break;
    sent += static_cast<uint64_t>(depth);
    std::this_thread::sleep_until(deadline);
    deadline += interval;
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  // Let in-flight replies drain, then stop the reader by closing the
  // connection out from under its blocking recv.
  for (int i = 0; i < 200 && replies.load() < sent; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  reader_stop.store(true, std::memory_order_relaxed);
  // shutdown() (not close()) unblocks the reader's in-flight recv.
  ::shutdown(sender.fd(), SHUT_RDWR);
  reader.join();
  sender.Close();

  OpenLoopResult result;
  result.offered_rate = rate;
  result.achieved_rate = static_cast<double>(replies.load()) / elapsed;
  result.get_latency =
      server->metrics()->SnapshotHistogram(Hist::kServerGetLatency);
  result.pipeline_depth =
      server->metrics()->SnapshotHistogram(Hist::kServerPipelineDepth);
  server->Stop();
  return result;
}

const char* WorkloadName(Workload w) {
  return w == Workload::kGet ? "get" : "mixed";
}

void PrintRun(const RunResult& r) {
  printf("  %-5s threads=%d conns=%-2d depth=%-3d  %9.0f ops/s  "
         "%8llu cmds  %.4f engine calls/cmd\n",
         WorkloadName(r.workload), r.threads, r.connections, r.depth,
         r.ops_per_sec, static_cast<unsigned long long>(r.commands),
         r.engine_calls_per_command);
}

}  // namespace
}  // namespace monkeydb

int main(int argc, char** argv) {
  using namespace monkeydb;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const unsigned hw_threads = std::thread::hardware_concurrency();
  const double run_seconds = smoke ? 0.4 : 3.0;
  const int keyspace = smoke ? 512 : 8192;
  const int conns = smoke ? 2 : 8;

  printf("server_throughput: %u hardware thread(s)%s\n\n", hw_threads,
         smoke ? " [smoke]" : "");
  if (hw_threads < 4) {
    printf("NOTE: fewer than 4 hardware threads — loop scaling numbers\n"
           "below are contention-bound, not the >= 2.5x a 4-core host\n"
           "shows. engine-calls-per-command is hardware-independent.\n\n");
  }

  auto env = NewMemEnv();  // Socket + engine CPU cost, no disk noise.

  printf("closed loop:\n");
  std::vector<RunResult> closed;
  int run_id = 0;
  auto run = [&](int threads, int depth, Workload w) {
    const std::string dir = "/bench-" + std::to_string(run_id++);
    closed.push_back(ClosedLoop(env.get(), dir, threads, conns, depth,
                                keyspace, w, run_seconds));
    PrintRun(closed.back());
  };
  constexpr int kLoops = 4;
  run(1, 1, Workload::kGet);
  run(1, 16, Workload::kGet);
  run(kLoops, 1, Workload::kGet);
  run(kLoops, 16, Workload::kGet);
  run(1, 16, Workload::kMixed);  // Class boundaries split batches.

  // The pipelining acceptance metric, measured not asserted-by-hand:
  // every depth-16 GET pipeline must come in under 0.2 engine calls per
  // command (one MultiGet per batch: 0.0625).
  double depth16_calls_per_cmd = 0;
  auto ops = [&](int threads, int depth) {
    for (const RunResult& r : closed) {
      if (r.workload == Workload::kGet && r.threads == threads &&
          r.depth == depth) {
        return r.ops_per_sec;
      }
    }
    return 0.0;
  };
  for (const RunResult& r : closed) {
    if (r.workload == Workload::kGet && r.depth == 16) {
      depth16_calls_per_cmd =
          std::max(depth16_calls_per_cmd, r.engine_calls_per_command);
    }
  }
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  const double loops_depth1 = ratio(ops(kLoops, 1), ops(1, 1));
  const double loops_depth16 = ratio(ops(kLoops, 16), ops(1, 16));
  printf("\npipelining: depth 16 vs 1 = %.2fx throughput, "
         "%.4f engine calls/cmd (bound: 0.2)\n",
         ratio(ops(1, 16), ops(1, 1)), depth16_calls_per_cmd);
  printf("loop scaling: %d vs 1 loops = %.2fx at depth 1, %.2fx at "
         "depth 16 (meaningful on >= 4 cores only)\n\n",
         kLoops, loops_depth1, loops_depth16);

  printf("open loop (GET-only, fixed offered rate):\n");
  const double rate = smoke ? 2000 : 20000;
  OpenLoopResult open =
      OpenLoop(env.get(), "/bench-open", rate, 16, keyspace, run_seconds);
  printf("  offered %.0f/s achieved %.0f/s  get latency p50=%.0fus "
         "p99=%.0fus p99.9=%.0fus  pipeline depth avg=%.1f\n\n",
         open.offered_rate, open.achieved_rate, open.get_latency.p50,
         open.get_latency.p99, open.get_latency.p999,
         open.pipeline_depth.avg);

  {
    bench::BenchJsonWriter w("server_throughput");
    w.Config("smoke", smoke);
    w.BeginArray("closed_loop");
    for (const RunResult& r : closed) {
      w.BeginObject();
      w.Field("workload", WorkloadName(r.workload));
      w.Field("threads", r.threads);
      w.Field("connections", r.connections);
      w.Field("depth", r.depth);
      w.Field("ops_per_sec", r.ops_per_sec);
      w.Field("commands", r.commands);
      w.Field("engine_calls", r.engine_calls);
      w.Field("engine_calls_per_command", r.engine_calls_per_command);
      w.EndObject();
    }
    w.EndArray();
    w.BeginObject("pipelining");
    w.Field("depth16_engine_calls_per_command", depth16_calls_per_cmd);
    w.Field("bound", 0.2);
    w.Field("pass", depth16_calls_per_cmd <= 0.2);
    w.EndObject();
    w.BeginObject("loop_scaling");
    w.Field("loops", kLoops);
    w.Field("speedup_depth1", loops_depth1);
    w.Field("speedup_depth16", loops_depth16);
    w.EndObject();
    w.BeginObject("open_loop");
    w.Field("offered_rate", open.offered_rate);
    w.Field("achieved_rate", open.achieved_rate);
    w.Field("get_p50_us", open.get_latency.p50);
    w.Field("get_p99_us", open.get_latency.p99);
    w.Field("get_p999_us", open.get_latency.p999);
    w.Field("pipeline_depth_avg", open.pipeline_depth.avg);
    w.EndObject();
    w.WriteFile("BENCH_server.json");
  }

  if (depth16_calls_per_cmd > 0.2) {
    fprintf(stderr,
            "FAIL: depth-16 engine calls per command %.4f exceeds the "
            "0.2 acceptance bound\n",
            depth16_calls_per_cmd);
    return 1;
  }
  return 0;
}
