// point_read: the paper's headline path (Eq. 3). A read-only closed loop of
// 3 client threads over a Monkey-filtered leveling tree of 1M entries
// (16 B keys, 100 B values, ~116 MB of user data) behind an 8 MB block
// cache, so the data is far larger than the cache. Keys are uniform; the
// mix is 50% zero-result Get, 40% existing-key Get and 10% MultiGet of 16
// keys (8 present, 8 absent). It loads bloom, sstable, io reads and the
// block cache, and never touches memtable writes, the WAL, compaction, the
// server or the engine's metrics histograms (enable_metrics stays off).
//
// Set-up is the fill: 1M Puts from one thread in key-hash order, then a
// Flush. Its Puts give the put latencies; it is repeated and the median is
// setup_s.

#include <memory>

#include "io/block_cache.h"
#include "monkey/fpr_allocator.h"
#include "workloads.h"

namespace perfbench {

namespace {

using monkeydb::DB;
using monkeydb::DbOptions;
using monkeydb::ReadOptions;
using monkeydb::Status;
using monkeydb::WriteOptions;

constexpr uint64_t kEntries = 1000000;
constexpr int kThreads = 3;
constexpr size_t kStreamOps = 1 << 20;
constexpr size_t kBatch = 16;
constexpr size_t kCacheBytes = 8 << 20;
constexpr int kFills = 3;
constexpr double kWarmupSeconds = 1.0;
constexpr int kWindows = 5;
constexpr uint64_t kZeroResultProbes = 50000;

enum : uint8_t { kGetAbsent, kGetPresent, kMultiGet };

struct Op {
  uint32_t arg;  // Key id, or the MultiGet's index into batch_ids.
  uint8_t type;
};

// One client thread's pre-generated stream and its measurements.
struct Client {
  std::vector<Op> ops;
  std::vector<uint32_t> batch_ids;  // kBatch ids per MultiGet.
  size_t next = 0;                  // Position in ops (wraps).
  Samples get;
  Samples multiget;
  uint64_t measured_ops = 0;
  Tally tally;
};

void GenerateClient(uint64_t seed, int index, Client* c) {
  Rng rng(Mix64(seed) ^ (0x1000 + index));
  c->ops.resize(kStreamOps);
  for (Op& op : c->ops) {
    const uint64_t roll = rng.Uniform(100);
    if (roll < 50) {
      op = Op{static_cast<uint32_t>(kEntries + rng.Uniform(kEntries)),
              kGetAbsent};
    } else if (roll < 90) {
      op = Op{static_cast<uint32_t>(rng.Uniform(kEntries)), kGetPresent};
    } else {
      op = Op{static_cast<uint32_t>(c->batch_ids.size() / kBatch), kMultiGet};
      uint32_t ids[kBatch];
      for (size_t k = 0; k < kBatch; k++) {
        ids[k] = static_cast<uint32_t>((k % 2 == 0 ? 0 : kEntries) +
                                       rng.Uniform(kEntries));
      }
      for (size_t k = kBatch - 1; k > 0; k--) {
        std::swap(ids[k], ids[rng.Uniform(k + 1)]);
      }
      c->batch_ids.insert(c->batch_ids.end(), ids, ids + kBatch);
    }
  }
}

class Fixture {
 public:
  explicit Fixture(const Args& args)
      : args_(args), keys_(args.seed, 2 * kEntries) {
    values_.resize(kEntries * kValueSize);
    for (uint64_t id = 0; id < kEntries; id++) {
      MakeValue(keys_.key(id), 0, values_.data() + id * kValueSize);
    }
    clients_.resize(kThreads);
    for (int i = 0; i < kThreads; i++) {
      GenerateClient(args.seed, i, &clients_[i]);
    }
  }

  DbOptions Options() const {
    DbOptions o = BaseDbOptions();
    o.merge_policy = monkeydb::MergePolicy::kLeveling;
    o.fpr_policy = std::make_shared<monkeydb::monkey::MonkeyFprPolicy>();
    o.enable_metrics = false;
    return o;
  }

  bool VerifyGet(uint64_t id, const Status& s, const std::string& v) const {
    if (id >= kEntries) return s.IsNotFound();
    return s.ok() && v.size() == kValueSize &&
           memcmp(v.data(), values_.data() + id * kValueSize, kValueSize) ==
               0;
  }

  // Fills a fresh store from one thread; returns the seconds from Open
  // through the final Flush.
  double Fill(Samples* puts, uint64_t* bytes_written, Tally* tally) {
    ResetDir(args_.dir);
    const uint64_t wchar = ProcessWriteBytes();
    const uint64_t start = NowNs();
    std::unique_ptr<DB> db;
    Status s = DB::Open(Options(), args_.dir, &db);
    if (!s.ok()) {
      fprintf(stderr, "open: %s\n", s.ToString().c_str());
      tally->attempted++;
      tally->failed++;
      return 0;
    }
    WriteOptions wo;
    for (uint64_t id = 0; id < kEntries; id++) {
      const Slice value(values_.data() + id * kValueSize, kValueSize);
      const uint64_t t0 = NowNs();
      s = db->Put(wo, keys_.key(id), value);
      puts->Add(NowNs() - t0);
      tally->attempted++;
      if (!s.ok()) tally->failed++;
    }
    tally->attempted++;
    if (!db->Flush().ok()) tally->failed++;
    const double seconds = (NowNs() - start) / 1e9;
    *bytes_written = ProcessWriteBytes() - wchar;
    return seconds;
  }

  // One closed-loop phase on an open store; returns its ops/s.
  double Measure(DB* db, double seconds, bool traced, bool record) {
    for (Client& c : clients_) c.measured_ops = 0;
    const double elapsed =
        RunThreads(kThreads, seconds, [&](int i, const std::atomic<bool>& stop) {
          ClientLoop(db, traced, record, stop, &clients_[i]);
        });
    uint64_t ops = 0;
    for (const Client& c : clients_) ops += c.measured_ops;
    return ops / elapsed;
  }

  // Zero-result Gets from one thread: the measured R of Eq. 3 is the
  // false positives they cause per lookup.
  double MeasureZeroResultCost(DB* db, Tally* tally) {
    db->ResetStats();
    Rng rng(Mix64(args_.seed) ^ 0x2000);
    std::vector<uint32_t> ids(kZeroResultProbes);
    for (uint32_t& id : ids) {
      id = static_cast<uint32_t>(kEntries + rng.Uniform(kEntries));
    }
    std::string value;
    for (uint32_t id : ids) {
      Status s = db->Get(ReadOptions(), keys_.key(id), &value);
      tally->attempted++;
      if (!s.IsNotFound()) tally->failed++;
    }
    const monkeydb::DbStats st = db->GetStats();
    return st.gets_not_found > 0
               ? static_cast<double>(st.false_positives) / st.gets_not_found
               : 0;
  }

  std::vector<Client>& clients() { return clients_; }

 private:
  void ClientLoop(DB* db, bool traced, bool record,
                  const std::atomic<bool>& stop, Client* c) {
    ReadOptions ro;
    std::string value;
    std::vector<Slice> batch(kBatch);
    std::vector<std::string> batch_values;
    while (!stop.load(std::memory_order_relaxed)) {
      const Op op = c->ops[c->next];
      if (++c->next == c->ops.size()) c->next = 0;
      bool ok = true;
      uint64_t t0, t1;
      if (op.type == kMultiGet) {
        const uint32_t* ids = &c->batch_ids[op.arg * kBatch];
        for (size_t k = 0; k < kBatch; k++) batch[k] = keys_.key(ids[k]);
        std::vector<Status> st;
        t0 = NowNs();
        {
          OpSpan span(traced, kOpMultiGet);
          st = db->MultiGet(ro, batch, &batch_values);
        }
        t1 = NowNs();
        ok = st.size() == kBatch && batch_values.size() == kBatch;
        for (size_t k = 0; ok && k < kBatch; k++) {
          ok = VerifyGet(ids[k], st[k], batch_values[k]);
        }
        if (record) c->multiget.Add(t1 - t0);
      } else {
        Status s;
        t0 = NowNs();
        {
          OpSpan span(traced, kOpGet);
          s = db->Get(ro, keys_.key(op.arg), &value);
        }
        t1 = NowNs();
        ok = VerifyGet(op.arg, s, value);
        if (record) c->get.Add(t1 - t0);
      }
      c->tally.attempted++;
      if (!ok) c->tally.failed++;
      c->measured_ops++;
    }
  }

  const Args& args_;
  KeySpace keys_;
  std::string values_;
  std::vector<Client> clients_;
};

std::unique_ptr<DB> OpenStore(const DbOptions& options, const std::string& dir,
                              Tally* tally) {
  std::unique_ptr<DB> db;
  Status s = DB::Open(options, dir, &db);
  tally->attempted++;
  if (!s.ok()) {
    fprintf(stderr, "open: %s\n", s.ToString().c_str());
    tally->failed++;
  }
  return db;
}

}  // namespace

Tally RunPointRead(const Args& args, Report* report) {
  Fixture fx(args);
  Tally tally;
  Series series;
  const double user_bytes = kEntries * (kKeySize + kValueSize);
  for (int i = 0; i < (args.trace ? 1 : kFills); i++) {
    Samples puts;
    uint64_t written = 0;
    series.Add("setup_s", fx.Fill(&puts, &written, &tally));
    series.Add("write_amp", written / user_bytes);
    series.AddLatency("put", &puts);
  }
  series.Add("space_amp", DirBytes(args.dir) / user_bytes);
  if (tally.failed > 0) return tally;

  if (!args.trace) {
    monkeydb::BlockCache cache(kCacheBytes);
    DbOptions o = fx.Options();
    o.block_cache = &cache;
    std::unique_ptr<DB> db = OpenStore(o, args.dir, &tally);
    if (db == nullptr) return tally;
    fx.Measure(db.get(), kWarmupSeconds, false, false);
    for (int w = 0; w < kWindows; w++) {
      series.Add("ops_per_s",
                 fx.Measure(db.get(), args.seconds / kWindows, false, true));
      Samples get, multiget;
      for (Client& c : fx.clients()) {
        get.Append(c.get);
        multiget.Append(c.multiget);
        c.get.Clear();
        c.multiget.Clear();
      }
      series.AddLatency("get", &get);
      series.AddLatency("multikey", &multiget);
    }
    for (Client& c : fx.clients()) tally.Add(c.tally);
    series.Print(report);
    report->Info("block_cache_hits", cache.hits());
    report->Info("block_cache_misses", cache.misses());
    return tally;
  }

  // Traced run: a quarter of the time on a plain store, half on a wrapped
  // one, then a quarter plain again, so a drift of the host cancels out of
  // the overhead.
  LayerInputs in;
  double untraced = 0;
  for (const bool traced : {false, true, false}) {
    monkeydb::BlockCache cache(kCacheBytes);
    Instrumentation wrappers;
    DbOptions o = fx.Options();
    o.block_cache = &cache;
    if (traced) wrappers.Apply(&o);
    std::unique_ptr<DB> db = OpenStore(o, args.dir, &tally);
    if (db == nullptr) return tally;
    fx.Measure(db.get(), kWarmupSeconds, false, false);
    if (!traced) {
      untraced += fx.Measure(db.get(), args.seconds / 4, false, false) / 2;
      continue;
    }
    ResetTrace();
    db->ResetStats();
    cache.ResetCounters();
    in.traced_ops_per_s = fx.Measure(db.get(), args.seconds / 2, true, false);
    in.trace = CollectTrace();
    in.stats = db->GetStats();
    in.cache_hits = cache.hits();
    in.cache_misses = cache.misses();
    in.zero_result_fp = fx.MeasureZeroResultCost(db.get(), &tally);
  }
  in.untraced_ops_per_s = untraced;
  for (Client& c : fx.clients()) tally.Add(c.tally);
  EmitLayerMetrics(in, report);
  return tally;
}

}  // namespace perfbench
