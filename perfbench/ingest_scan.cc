// ingest_scan: the write path. Each round preloads 250k entries into a
// fresh store, then 2 client threads run a fixed amount of work: 80% Put
// (uniform over a 500k-key space, each thread owning half of it), 10% Get
// of a key the thread wrote recently, 10% scan (Seek at a uniform key, then
// 32 Next). Live data is ~58 MB against a 64 MB block cache, so reads
// mostly hit the memtable or the cache. Compaction is synchronous in the
// writer; enable_metrics is on, as with monkey_server --engine-metrics.
// It loads the memtable, the WAL, group commit, flush and merge (sstable
// builder, bloom build, Monkey allocation) and the merging iterator.
//
// A round ends on work done, not on a timer: the number of merges inside
// a fixed time window varies from run to run, while a fixed amount of work
// from the same preload repeats it. Rounds repeat until --seconds of
// measured work have run; each metric is the median over rounds.

#include <memory>

#include "io/block_cache.h"
#include "monkey/fpr_allocator.h"
#include "util/iterator.h"
#include "workloads.h"

namespace perfbench {

namespace {

using monkeydb::DB;
using monkeydb::DbOptions;
using monkeydb::ReadOptions;
using monkeydb::Status;
using monkeydb::WriteOptions;

constexpr uint64_t kKeySpace = 500000;
constexpr uint64_t kPreload = 250000;
constexpr int kThreads = 2;
constexpr size_t kOpsPerThread = 150000;
constexpr size_t kRecent = 64;
constexpr int kScanNext = 32;
constexpr size_t kCacheBytes = 64 << 20;
constexpr int kMinRounds = 3;
constexpr int kMaxRounds = 12;

enum : uint8_t { kPut, kGet, kScan };

struct Op {
  uint32_t id;
  uint8_t type;
  uint32_t version;  // Put: the version its value carries.
};

struct Client {
  std::vector<Op> ops;
  std::string values;  // kValueSize per Put, in stream order.
  Samples put;
  Samples get;
  Samples scan;
  Tally tally;
};

// Thread t owns the ids with id % kThreads == t: only it writes them, so
// it knows the exact version every read of them must return.
void GenerateClient(const KeySpace& keys, uint64_t seed, int t, Client* c) {
  Rng rng(Mix64(seed) ^ (0x4000 + t));
  const uint64_t owned = kKeySpace / kThreads;
  std::vector<uint32_t> recent;
  uint32_t version = 0;
  c->ops.resize(kOpsPerThread);
  for (Op& op : c->ops) {
    const uint64_t roll = rng.Uniform(10);
    if (roll < 8) {
      op = Op{static_cast<uint32_t>(rng.Uniform(owned) * kThreads + t), kPut,
              ++version};
      if (recent.size() == kRecent) recent.erase(recent.begin());
      recent.push_back(op.id);
      const size_t at = c->values.size();
      c->values.resize(at + kValueSize);
      MakeValue(keys.key(op.id), version, c->values.data() + at);
    } else if (roll < 9) {
      const uint32_t id =
          recent.empty()
              ? static_cast<uint32_t>(rng.Uniform(kPreload / kThreads) *
                                          kThreads +
                                      t)
              : recent[rng.Uniform(recent.size())];
      op = Op{id, kGet, 0};
    } else {
      op = Op{static_cast<uint32_t>(rng.Uniform(kKeySpace)), kScan, 0};
    }
  }
}

struct RoundResult {
  double setup_s = 0;
  double ops_per_s = 0;
  double write_amp = 0;
  double space_amp = 0;
};

class Fixture {
 public:
  explicit Fixture(const Args& args)
      : args_(args), keys_(args.seed, kKeySpace) {
    preload_values_.resize(kPreload * kValueSize);
    for (uint64_t id = 0; id < kPreload; id++) {
      MakeValue(keys_.key(id), 0, preload_values_.data() + id * kValueSize);
    }
    clients_.resize(kThreads);
    std::vector<bool> live(kKeySpace, false);
    for (uint64_t id = 0; id < kPreload; id++) live[id] = true;
    for (int t = 0; t < kThreads; t++) {
      GenerateClient(keys_, args.seed, t, &clients_[t]);
      for (const Op& op : clients_[t].ops) {
        if (op.type == kPut) live[op.id] = true;
      }
    }
    for (bool b : live) live_keys_ += b;
  }

  DbOptions Options() const {
    DbOptions o = BaseDbOptions();
    o.merge_policy = monkeydb::MergePolicy::kLeveling;
    o.fpr_policy = std::make_shared<monkeydb::monkey::MonkeyFprPolicy>();
    o.enable_metrics = true;
    return o;
  }

  // One round on a fresh store. With wrappers, in gets the traced
  // counters of the work phase.
  RoundResult Round(Instrumentation* wrappers, LayerInputs* in, Tally* tally) {
    RoundResult r;
    ResetDir(args_.dir);
    monkeydb::BlockCache cache(kCacheBytes);
    DbOptions o = Options();
    o.block_cache = &cache;
    if (wrappers != nullptr) wrappers->Apply(&o);

    const uint64_t wchar = ProcessWriteBytes();
    const uint64_t start = NowNs();
    std::unique_ptr<DB> db;
    tally->attempted++;
    if (!DB::Open(o, args_.dir, &db).ok()) {
      tally->failed++;
      return r;
    }
    WriteOptions wo;
    for (uint64_t id = 0; id < kPreload; id++) {
      const Slice value(preload_values_.data() + id * kValueSize, kValueSize);
      tally->attempted++;
      if (!db->Put(wo, keys_.key(id), value).ok()) tally->failed++;
    }
    tally->attempted++;
    if (!db->Flush().ok()) tally->failed++;
    r.setup_s = (NowNs() - start) / 1e9;

    if (wrappers != nullptr) {
      ResetTrace();
      db->ResetStats();
      cache.ResetCounters();
    }
    const double elapsed =
        RunThreads(kThreads, 0, [&](int t, const std::atomic<bool>&) {
          ClientLoop(db.get(), t, wrappers != nullptr);
        });
    uint64_t puts = 0;
    for (const Client& c : clients_) {
      for (const Op& op : c.ops) puts += op.type == kPut;
    }
    const double user_bytes = (kPreload + puts) * (kKeySize + kValueSize);
    r.ops_per_s = kThreads * kOpsPerThread / elapsed;
    r.write_amp = (ProcessWriteBytes() - wchar) / user_bytes;
    r.space_amp = DirBytes(args_.dir) /
                  static_cast<double>(live_keys_ * (kKeySize + kValueSize));
    if (in != nullptr) {
      in->trace = CollectTrace();
      in->stats = db->GetStats();
      in->cache_hits = cache.hits();
      in->cache_misses = cache.misses();
      in->puts = puts;
      in->user_bytes_put = puts * (kKeySize + kValueSize);
    }
    return r;
  }

  std::vector<Client>& clients() { return clients_; }

 private:
  void ClientLoop(DB* db, int t, bool traced) {
    Client* c = &clients_[t];
    std::vector<uint32_t> version(kKeySpace, kAbsent);
    for (uint64_t id = t; id < kPreload; id += kThreads) version[id] = 0;
    WriteOptions wo;
    ReadOptions ro;
    std::string value;
    std::string scanned;  // Keys and values a scan returned.
    const char* next_value = c->values.data();
    for (const Op& op : c->ops) {
      bool ok = true;
      if (op.type == kPut) {
        const Slice v(next_value, kValueSize);
        next_value += kValueSize;
        Status s;
        const uint64_t t0 = NowNs();
        {
          OpSpan span(traced, kOpPut);
          s = db->Put(wo, keys_.key(op.id), v);
        }
        c->put.Add(NowNs() - t0);
        ok = s.ok();
        if (ok) version[op.id] = op.version;
      } else if (op.type == kGet) {
        Status s;
        const uint64_t t0 = NowNs();
        {
          OpSpan span(traced, kOpGet);
          s = db->Get(ro, keys_.key(op.id), &value);
        }
        c->get.Add(NowNs() - t0);
        uint32_t got = 0;
        ok = s.ok() && CheckValue(keys_.key(op.id), value, &got) &&
             got == version[op.id];
      } else {
        scanned.clear();
        Status s;
        const uint64_t t0 = NowNs();
        {
          OpSpan span(traced, kOpScan);
          std::unique_ptr<monkeydb::Iterator> it = db->NewIterator(ro);
          it->Seek(keys_.key(op.id));
          for (int n = 0; n <= kScanNext && it->Valid(); n++) {
            scanned.append(it->key().data(), it->key().size());
            scanned.append(it->value().data(), it->value().size());
            if (n < kScanNext) it->Next();
          }
          s = it->status();
        }
        c->scan.Add(NowNs() - t0);
        ok = s.ok() && VerifyScan(t, op.id, scanned, version);
      }
      c->tally.attempted++;
      if (!ok) c->tally.failed++;
    }
  }

  // Keys strictly ascending from the Seek key, every value carrying its
  // key, and this thread's keys at exactly the version it last wrote.
  bool VerifyScan(int t, uint32_t seek_id, const std::string& scanned,
                  const std::vector<uint32_t>& version) const {
    constexpr size_t kEntry = kKeySize + kValueSize;
    if (scanned.size() % kEntry != 0) return false;
    Slice prev = keys_.key(seek_id);
    for (size_t at = 0; at < scanned.size(); at += kEntry) {
      const Slice key(scanned.data() + at, kKeySize);
      const Slice value(scanned.data() + at + kKeySize, kValueSize);
      const int order = key.compare(prev);
      if (order < 0 || (order == 0 && at != 0)) return false;
      uint64_t id = 0;
      uint32_t got = 0;
      if (!keys_.IdOf(key, &id) || !CheckValue(key, value, &got)) return false;
      if (id % kThreads == static_cast<uint64_t>(t) && got != version[id]) {
        return false;
      }
      prev = key;
    }
    return true;
  }

  const Args& args_;
  KeySpace keys_;
  std::string preload_values_;
  std::vector<Client> clients_;
  uint64_t live_keys_ = 0;
};

}  // namespace

Tally RunIngestScan(const Args& args, Report* report) {
  Fixture fx(args);
  Tally tally;
  if (args.trace) {
    // A plain round on each side of the traced one, so a drift of the host
    // cancels out of the overhead.
    LayerInputs in;
    const RoundResult before = fx.Round(nullptr, nullptr, &tally);
    Instrumentation wrappers;
    const RoundResult traced = fx.Round(&wrappers, &in, &tally);
    const RoundResult after = fx.Round(nullptr, nullptr, &tally);
    in.untraced_ops_per_s = (before.ops_per_s + after.ops_per_s) / 2;
    in.traced_ops_per_s = traced.ops_per_s;
    for (Client& c : fx.clients()) tally.Add(c.tally);
    EmitLayerMetrics(in, report);
    return tally;
  }

  Series series;
  double measured = 0;
  for (int round = 0; round < kMaxRounds; round++) {
    if (round >= kMinRounds && measured >= args.seconds) break;
    const RoundResult r = fx.Round(nullptr, nullptr, &tally);
    series.Add("setup_s", r.setup_s);
    series.Add("ops_per_s", r.ops_per_s);
    series.Add("write_amp", r.write_amp);
    series.Add("space_amp", r.space_amp);
    measured += kThreads * kOpsPerThread / r.ops_per_s;
    Samples put, get, scan;
    for (Client& c : fx.clients()) {
      put.Append(c.put);
      get.Append(c.get);
      scan.Append(c.scan);
      c.put.Clear();
      c.get.Clear();
      c.scan.Clear();
    }
    series.AddLatency("put", &put);
    series.AddLatency("get", &get);
    series.AddLatency("multikey", &scan);
    if (tally.failed > 0) break;
  }
  for (Client& c : fx.clients()) tally.Add(c.tally);
  series.Print(report);
  return tally;
}

}  // namespace perfbench
