// resp_pipeline: the serving layer. An in-process MonkeyServer with
// monkey_server's defaults (1 shard, server metrics on, engine metrics
// off, no block cache, real files) and the benchmark's MultiGet setting
// (BaseDbOptions), preloaded with 100k keys. Three client
// threads drive it over loopback RESP in a closed loop: one connection at
// pipeline depth 1 and two at depth 16, each waiting for all its replies
// before sending again; with the server's event loop that is 4 threads.
// The mix is 90% GET / 10% SET over Zipf-skewed keys (theta 0.99). Engine
// work per command is small, so RESP parsing, dispatch, batching into
// MultiGet / WriteBatch and socket I/O dominate; the depth-1 and depth-16
// connections separate per-command overhead from batching.
//
// Set-up is the preload through RESP (pipelined SETs) and a Flush of the
// shard; every round sets up afresh and setup_s is the median.

#include <algorithm>
#include <cmath>
#include <memory>

#include "obs/metrics.h"
#include "server/resp_client.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {

namespace {

using monkeydb::MonkeyServer;
using monkeydb::RespClient;
using monkeydb::RespReply;
using monkeydb::ServerOptions;

constexpr uint64_t kKeys = 100000;
constexpr int kClients = 3;
constexpr size_t kDepth[kClients] = {1, 16, 16};
constexpr size_t kCommands[kClients] = {1 << 17, 1 << 19, 1 << 19};
constexpr double kZipfTheta = 0.99;
constexpr uint64_t kRankStride = 7919;  // Coprime with kKeys.
constexpr size_t kPreloadBatch = 100;
constexpr int kRounds = 5;
constexpr double kWarmupSeconds = 0.5;

enum : uint8_t { kGet, kSet };

struct Cmd {
  uint32_t id;
  uint8_t type;
  uint32_t version;  // SET: the version its value carries.
};

// One connection's pre-encoded requests: units of kDepth[i] commands, each
// sent with one write and answered before the next is sent.
struct Client {
  size_t depth = 1;
  std::vector<Cmd> cmds;
  std::vector<std::string> units;
  size_t next_unit = 0;  // Wraps.
  // Client i alone SETs the ids with id % kClients == i, so it knows the
  // version each of its GETs of them must return.
  std::vector<uint32_t> version;
  Samples get;    // Depth-1 GET round trips.
  Samples set;    // Depth-1 SET round trips.
  Samples batch;  // Depth-16 batch round trips.
  uint64_t measured_cmds = 0;
  uint64_t measured_sets = 0;
  Tally tally;
};

class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double theta) : cdf_(n) {
    double sum = 0;
    for (uint64_t r = 0; r < n; r++) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), theta);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  uint64_t Rank(double u) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<uint64_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

std::string Str(const Slice& s) { return s.ToString(); }

class Fixture {
 public:
  explicit Fixture(const Args& args) : args_(args), keys_(args.seed, kKeys) {
    char value[kValueSize];
    std::string unit;
    for (uint64_t id = 0; id < kKeys; id++) {
      MakeValue(keys_.key(id), 0, value);
      RespClient::EncodeCommand(
          {"SET", Str(keys_.key(id)), std::string(value, kValueSize)}, &unit);
      if ((id + 1) % kPreloadBatch == 0 || id + 1 == kKeys) {
        preload_.push_back(std::move(unit));
        unit.clear();
      }
    }
    const ZipfSampler zipf(kKeys, kZipfTheta);
    const uint64_t offset = Mix64(args.seed) % kKeys;
    for (int i = 0; i < kClients; i++) {
      Client& c = clients_[i];
      c.depth = kDepth[i];
      Rng rng(Mix64(args.seed) ^ (0x5000 + i));
      uint32_t version = 0;
      std::string wire;
      for (size_t n = 0; n < kCommands[i]; n++) {
        uint64_t id = (zipf.Rank(rng.Unit()) * kRankStride + offset) % kKeys;
        if (rng.Uniform(10) == 0) {
          id = id - id % kClients + i;
          if (id >= kKeys) id -= kClients;
          MakeValue(keys_.key(id), ++version, value);
          c.cmds.push_back(Cmd{static_cast<uint32_t>(id), kSet, version});
          RespClient::EncodeCommand({"SET", Str(keys_.key(id)),
                                     std::string(value, kValueSize)},
                                    &wire);
        } else {
          c.cmds.push_back(Cmd{static_cast<uint32_t>(id), kGet, 0});
          RespClient::EncodeCommand({"GET", Str(keys_.key(id))}, &wire);
        }
        if ((n + 1) % c.depth == 0) {
          c.units.push_back(std::move(wire));
          wire.clear();
        }
      }
    }
  }

  // Starts a server on a fresh directory and preloads it; returns the
  // seconds from Start through the Flush.
  double Setup(Instrumentation* wrappers, std::unique_ptr<MonkeyServer>* out,
               Tally* tally) {
    ResetDir(args_.dir);
    ServerOptions so;
    so.server_bind = "127.0.0.1";
    so.server_port = 0;
    so.db_options = BaseDbOptions();
    if (wrappers != nullptr) wrappers->Apply(&so.db_options);
    for (Client& c : clients_) c.version.assign(kKeys, 0);

    const uint64_t start = NowNs();
    tally->attempted++;
    if (!MonkeyServer::Start(so, args_.dir, out).ok()) {
      tally->failed++;
      return 0;
    }
    RespClient client;
    tally->attempted++;
    if (!client.Connect("127.0.0.1", (*out)->port()).ok()) {
      tally->failed++;
      return 0;
    }
    RespReply reply;
    for (const std::string& unit : preload_) {
      bool ok = client.SendRaw(unit).ok();
      for (size_t k = 0; ok && k < kPreloadBatch; k++) {
        ok = client.ReadReply(&reply).ok() &&
             reply.type == RespReply::Type::kSimple && reply.str == "OK";
      }
      tally->attempted++;
      if (!ok) tally->failed++;
    }
    tally->attempted++;
    if (!(*out)->shard_db(0)->Flush().ok()) tally->failed++;
    return (NowNs() - start) / 1e9;
  }

  // One closed-loop phase against a running server; returns commands/s.
  double Measure(int port, double seconds, bool traced, bool record,
                 Tally* tally) {
    RespClient conns[kClients];
    for (int i = 0; i < kClients; i++) {
      clients_[i].measured_cmds = 0;
      clients_[i].measured_sets = 0;
      tally->attempted++;
      if (!conns[i].Connect("127.0.0.1", port).ok()) {
        tally->failed++;
        return 0;
      }
    }
    const double elapsed =
        RunThreads(kClients, seconds, [&](int i, const std::atomic<bool>& stop) {
          ClientLoop(&conns[i], &clients_[i], i, traced, record, stop);
        });
    uint64_t cmds = 0;
    for (const Client& c : clients_) cmds += c.measured_cmds;
    return cmds / elapsed;
  }

  Client* clients() { return clients_; }

 private:
  void ClientLoop(RespClient* conn, Client* c, int index, bool traced,
                  bool record, const std::atomic<bool>& stop) {
    RespReply reply;
    while (!stop.load(std::memory_order_relaxed)) {
      const size_t unit = c->next_unit;
      if (++c->next_unit == c->units.size()) c->next_unit = 0;
      const Cmd* cmds = &c->cmds[unit * c->depth];
      const OpType op = c->depth > 1             ? kOpRespBatch
                        : cmds[0].type == kGet ? kOpRespGet
                                               : kOpRespSet;
      size_t ok_replies = 0;
      const uint64_t t0 = NowNs();
      {
        OpSpan span(traced, op);
        bool ok;
        if (traced) {
          Span send(kRespSend);
          ok = conn->SendRaw(c->units[unit]).ok();
        } else {
          ok = conn->SendRaw(c->units[unit]).ok();
        }
        for (size_t k = 0; ok && k < c->depth; k++) {
          if (traced) {
            Span recv(kRespRecv);
            ok = conn->ReadReply(&reply).ok();
          } else {
            ok = conn->ReadReply(&reply).ok();
          }
          if (ok && Verify(index, cmds[k], reply, c)) ok_replies++;
        }
      }
      const uint64_t t1 = NowNs();
      if (record) {
        Samples& s = op == kOpRespBatch ? c->batch
                     : op == kOpRespGet ? c->get
                                        : c->set;
        s.Add(t1 - t0);
      }
      c->tally.attempted += c->depth;
      c->tally.failed += c->depth - ok_replies;
      c->measured_cmds += c->depth;
      if (ok_replies != c->depth) break;  // The connection is out of step.
    }
  }

  bool Verify(int index, const Cmd& cmd, const RespReply& reply, Client* c) {
    if (cmd.type == kSet) {
      if (reply.type != RespReply::Type::kSimple || reply.str != "OK") {
        return false;
      }
      c->version[cmd.id] = cmd.version;
      c->measured_sets++;
      return true;
    }
    uint32_t got = 0;
    return reply.type == RespReply::Type::kBulk &&
           CheckValue(keys_.key(cmd.id), reply.str, &got) &&
           (cmd.id % kClients != static_cast<uint32_t>(index) ||
            got == c->version[cmd.id]);
  }

  const Args& args_;
  KeySpace keys_;
  std::vector<std::string> preload_;
  Client clients_[kClients];
};

double EngineCalls(const MonkeyServer& server) {
  return static_cast<double>(server.engine_calls().Total());
}

}  // namespace

Tally RunRespPipeline(const Args& args, Report* report) {
  Fixture fx(args);
  Tally tally;
  const double key_bytes = kKeySize + kValueSize;

  if (!args.trace) {
    // Each round starts a server on a fresh preload and measures one
    // window, so every window sees the same tree: within one long window
    // the SETs keep adding runs, and each GET (no block cache) probes more
    // of them as it goes. Write and space amplification come from the
    // preloads, which are the same work in every run.
    Series series;
    double engine_calls = 0;
    double commands = 0;
    for (int round = 0; round < kRounds; round++) {
      std::unique_ptr<MonkeyServer> server;
      const uint64_t wchar = ProcessWriteBytes();
      series.Add("setup_s", fx.Setup(nullptr, &server, &tally));
      if (tally.failed > 0) return tally;
      series.Add("write_amp",
                 (ProcessWriteBytes() - wchar) / (kKeys * key_bytes));
      series.Add("space_amp", DirBytes(args.dir) / (kKeys * key_bytes));
      fx.Measure(server->port(), kWarmupSeconds, false, false, &tally);
      const double calls = EngineCalls(*server);
      const uint64_t cmds = server->commands_processed();
      series.Add("ops_per_s", fx.Measure(server->port(),
                                         args.seconds / kRounds, false, true,
                                         &tally));
      engine_calls += EngineCalls(*server) - calls;
      commands += server->commands_processed() - cmds;
      server->Stop();
      Samples get, set, batch;
      for (int i = 0; i < kClients; i++) {
        Client& c = fx.clients()[i];
        get.Append(c.get);
        set.Append(c.set);
        batch.Append(c.batch);
        c.get.Clear();
        c.set.Clear();
        c.batch.Clear();
      }
      series.AddLatency("get", &get);
      series.AddLatency("put", &set);
      series.AddLatency("multikey", &batch);
      if (tally.failed > 0) break;
    }
    report->Info("engine_calls_per_cmd", engine_calls / commands);
    for (int i = 0; i < kClients; i++) tally.Add(fx.clients()[i].tally);
    series.Print(report);
    return tally;
  }

  // Traced run: a quarter of the time against a plain server, half against
  // one whose store is wrapped, then a quarter plain again, so a drift of
  // the host cancels out of the overhead.
  LayerInputs in;
  for (const bool traced : {false, true, false}) {
    Instrumentation wrappers;
    std::unique_ptr<MonkeyServer> server;
    fx.Setup(traced ? &wrappers : nullptr, &server, &tally);
    if (tally.failed > 0) return tally;
    fx.Measure(server->port(), kWarmupSeconds, false, false, &tally);
    if (!traced) {
      in.untraced_ops_per_s +=
          fx.Measure(server->port(), args.seconds / 4, false, false, &tally) /
          2;
      server->Stop();
      continue;
    }
    ResetTrace();
    server->shard_db(0)->ResetStats();
    server->metrics()->Reset();
    const double calls = EngineCalls(*server);
    const uint64_t commands = server->commands_processed();
    for (int i = 0; i < kClients; i++) fx.clients()[i].get.Clear();
    in.traced_ops_per_s =
        fx.Measure(server->port(), args.seconds / 2, true, true, &tally);
    in.engine_calls = static_cast<uint64_t>(EngineCalls(*server) - calls);
    in.commands = server->commands_processed() - commands;
    in.stats = server->shard_db(0)->GetStats();
    in.server_exec_p50_us =
        server->metrics()
            ->SnapshotHistogram(monkeydb::Hist::kServerGetLatency)
            .p50;
    Samples get;
    for (int i = 0; i < kClients; i++) {
      get.Append(fx.clients()[i].get);
      in.puts += fx.clients()[i].measured_sets;
    }
    in.resp_get_p50_us = get.PercentileUs(0.50);
    in.user_bytes_put = in.puts * (kKeySize + kValueSize);
    server->Stop();
    in.trace = CollectTrace();
  }
  for (int i = 0; i < kClients; i++) tally.Add(fx.clients()[i].tally);
  EmitLayerMetrics(in, report);
  return tally;
}

}  // namespace perfbench
