#include "tracing.h"

#include <atomic>
#include <mutex>
#include <vector>

#include "bench.h"

namespace perfbench {

using monkeydb::Comparator;
using monkeydb::Env;
using monkeydb::FprAllocationPolicy;
using monkeydb::LsmShape;
using monkeydb::RandomAccessFile;
using monkeydb::ReadRequest;
using monkeydb::SequentialFile;
using monkeydb::Status;
using monkeydb::WritableFile;

namespace {

constexpr int kMaxDepth = 64;

struct Frame {
  int kind = kRoot;
  uint64_t start = 0;
  uint64_t child_ns = 0;
  uint64_t last_child_end = 0;
};

// One thread's span stack and aggregates. Owned by the registry (threads
// of the engine's pools may exit before the totals are collected).
struct ThreadTrace {
  Frame stack[kMaxDepth];
  int depth = 0;
  int op = kBackground;  // Bucket of the open root, if any.
  int comp_depth = 0;    // Open flush/merge spans.
  int merge_depth = 0;
  uint64_t violations = 0;
  OpAgg agg[kNumOps + 1];

  OpAgg& Current() { return agg[op]; }

  void Begin(int kind) {
    const uint64_t now = NowNs();
    if (depth == kMaxDepth) {
      violations++;
      return;
    }
    if (depth > 0 && now < stack[depth - 1].start) violations++;
    stack[depth++] = Frame{kind, now, 0, 0};
    if (kind == kFlushJob || kind == kMergeJob) comp_depth++;
    if (kind == kMergeJob) merge_depth++;
  }

  void End(int kind) {
    const uint64_t now = NowNs();
    if (depth == 0 || stack[depth - 1].kind != kind) {
      violations++;
      return;
    }
    const Frame f = stack[--depth];
    const uint64_t dur = now - f.start;
    if (f.child_ns > dur || f.last_child_end > now) violations++;
    OpAgg& a = Current();
    a.self_ns[kind] += dur > f.child_ns ? dur - f.child_ns : 0;
    if (kind == kFlushJob || kind == kMergeJob) {
      if (--comp_depth == 0) a.comp_ns += dur;
    }
    if (kind == kMergeJob && --merge_depth == 0) a.merge_ns += dur;
    if (comp_depth == 0) a.outside_comp_ns[kind] += dur;
    if (depth > 0) {
      stack[depth - 1].child_ns += dur;
      stack[depth - 1].last_child_end = now;
    } else {
      a.count++;
      a.total_ns += dur;
      op = kBackground;
    }
  }
};

std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadTrace>> g_registry;
thread_local ThreadTrace* tl_trace = nullptr;

std::atomic<uint64_t> g_stall_ns{0};

ThreadTrace* Tl() {
  if (tl_trace == nullptr) {
    auto t = std::make_unique<ThreadTrace>();
    tl_trace = t.get();
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(std::move(t));
  }
  return tl_trace;
}

// --- Env wrappers ---

class TracingSequentialFile : public SequentialFile {
 public:
  explicit TracingSequentialFile(std::unique_ptr<SequentialFile> base)
      : base_(std::move(base)) {}
  Status Read(size_t n, Slice* result, char* scratch) override {
    Span span(kIoRead);
    Status s = base_->Read(n, result, scratch);
    OpAgg& a = Tl()->Current();
    a.reads++;
    a.read_bytes += result->size();
    return s;
  }
  Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  std::unique_ptr<SequentialFile> base_;
};

class TracingRandomAccessFile : public RandomAccessFile {
 public:
  explicit TracingRandomAccessFile(std::unique_ptr<RandomAccessFile> base)
      : base_(std::move(base)) {}
  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    Span span(kIoRead);
    Status s = base_->Read(offset, n, result, scratch);
    OpAgg& a = Tl()->Current();
    a.reads++;
    a.read_bytes += result->size();
    return s;
  }
  Status ReadBatch(ReadRequest* reqs, size_t count) const override {
    Span span(kIoReadBatch);
    Status s = base_->ReadBatch(reqs, count);
    OpAgg& a = Tl()->Current();
    a.reads++;
    a.read_batches++;
    for (size_t i = 0; i < count; i++) a.read_bytes += reqs[i].result.size();
    return s;
  }
  bool SupportsReadBatch() const override {
    return base_->SupportsReadBatch();
  }
  void ReadAhead(uint64_t offset, size_t n) const override {
    base_->ReadAhead(offset, n);
  }

 private:
  std::unique_ptr<RandomAccessFile> base_;
};

enum class FileClass { kWal, kTable, kOther };

FileClass Classify(const std::string& fname) {
  const size_t slash = fname.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? fname : fname.substr(slash + 1);
  if (base.find("wal") != std::string::npos ||
      base.find(".log") != std::string::npos) {
    return FileClass::kWal;
  }
  if (base.find(".sst") != std::string::npos) return FileClass::kTable;
  return FileClass::kOther;
}

class TracingWritableFile : public WritableFile {
 public:
  TracingWritableFile(std::unique_ptr<WritableFile> base, FileClass cls)
      : base_(std::move(base)), cls_(cls) {}
  Status Append(const Slice& data) override {
    Span span(kIoWrite);
    Status s = base_->Append(data);
    OpAgg& a = Tl()->Current();
    switch (cls_) {
      case FileClass::kWal: a.wal_bytes += data.size(); break;
      case FileClass::kTable: a.table_bytes += data.size(); break;
      case FileClass::kOther: a.other_bytes += data.size(); break;
    }
    return s;
  }
  Status Flush() override {
    Span span(kIoWrite);
    return base_->Flush();
  }
  Status Sync() override {
    Span span(kIoSync);
    Tl()->Current().syncs++;
    return base_->Sync();
  }
  Status Close() override {
    Span span(kIoWrite);
    return base_->Close();
  }

 private:
  std::unique_ptr<WritableFile> base_;
  FileClass cls_;
};

class TracingEnv : public Env {
 public:
  explicit TracingEnv(Env* base) : base_(base) {}
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    std::unique_ptr<SequentialFile> file;
    Status s = base_->NewSequentialFile(fname, &file);
    if (s.ok()) {
      *result = std::make_unique<TracingSequentialFile>(std::move(file));
    }
    return s;
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    std::unique_ptr<RandomAccessFile> file;
    Status s = base_->NewRandomAccessFile(fname, &file);
    if (s.ok()) {
      *result = std::make_unique<TracingRandomAccessFile>(std::move(file));
    }
    return s;
  }
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    std::unique_ptr<WritableFile> file;
    Status s = base_->NewWritableFile(fname, &file);
    if (s.ok()) {
      *result = std::make_unique<TracingWritableFile>(std::move(file),
                                                      Classify(fname));
    }
    return s;
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }

 private:
  Env* base_;
};

// --- Comparator, allocation policy, listener ---

class CountingComparator : public Comparator {
 public:
  explicit CountingComparator(const Comparator* base) : base_(base) {}
  int Compare(const Slice& a, const Slice& b) const override {
    Tl()->Current().compares++;
    return base_->Compare(a, b);
  }
  const char* Name() const override { return base_->Name(); }

 private:
  const Comparator* base_;
};

class TimedPolicy : public FprAllocationPolicy {
 public:
  explicit TimedPolicy(std::shared_ptr<const FprAllocationPolicy> base)
      : base_(std::move(base)) {}
  double RunFpr(const LsmShape& shape, int level) const override {
    Span span(kAlloc);
    Tl()->Current().allocs++;
    return base_->RunFpr(shape, level);
  }
  const char* Name() const override { return base_->Name(); }

 private:
  std::shared_ptr<const FprAllocationPolicy> base_;
};

class SpanListener : public monkeydb::EventListener {
 public:
  void OnFlushBegin(const monkeydb::FlushJobInfo&) override {
    Tl()->Begin(kFlushJob);
  }
  void OnFlushCompleted(const monkeydb::FlushJobInfo&) override {
    Tl()->End(kFlushJob);
  }
  void OnCompactionBegin(const monkeydb::CompactionJobInfo&) override {
    Tl()->Begin(kMergeJob);
  }
  void OnCompactionCompleted(const monkeydb::CompactionJobInfo&) override {
    Tl()->End(kMergeJob);
  }
  void OnWriteStallChange(const monkeydb::WriteStallInfo& info) override {
    using Condition = monkeydb::WriteStallInfo::Condition;
    const uint64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    if (info.current != Condition::kNormal && stall_start_ == 0) {
      stall_start_ = now;
    } else if (info.current == Condition::kNormal && stall_start_ != 0) {
      g_stall_ns.fetch_add(now - stall_start_, std::memory_order_relaxed);
      stall_start_ = 0;
    }
  }

 private:
  std::mutex mu_;
  uint64_t stall_start_ = 0;
};

}  // namespace

const char* SpanKindName(int kind) {
  static const char* const kNames[kNumKinds] = {
      "op_self", "io_read", "io_read_batch", "io_write", "io_sync",
      "flush",   "merge",   "alloc",         "resp_send", "resp_recv"};
  return kNames[kind];
}

void OpAgg::Add(const OpAgg& o) {
  count += o.count;
  total_ns += o.total_ns;
  for (int k = 0; k < kNumKinds; k++) self_ns[k] += o.self_ns[k];
  comp_ns += o.comp_ns;
  merge_ns += o.merge_ns;
  for (int k = 0; k < kNumKinds; k++) {
    outside_comp_ns[k] += o.outside_comp_ns[k];
  }
  reads += o.reads;
  read_bytes += o.read_bytes;
  read_batches += o.read_batches;
  wal_bytes += o.wal_bytes;
  table_bytes += o.table_bytes;
  other_bytes += o.other_bytes;
  syncs += o.syncs;
  compares += o.compares;
  allocs += o.allocs;
}

uint64_t OpAgg::SelfSum() const {
  uint64_t sum = 0;
  for (int k = 0; k < kNumKinds; k++) sum += self_ns[k];
  return sum;
}

OpAgg TraceTotals::All() const {
  OpAgg all;
  for (const OpAgg& a : ops) all.Add(a);
  return all;
}

void ResetTrace() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (auto& t : g_registry) {
    for (OpAgg& a : t->agg) a = OpAgg();
    t->violations = 0;
  }
  g_stall_ns.store(0);
}

TraceTotals CollectTrace() {
  TraceTotals totals;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (auto& t : g_registry) {
    for (int i = 0; i <= kNumOps; i++) totals.ops[i].Add(t->agg[i]);
    totals.violations += t->violations;
    // A span still open here was never closed by its owner.
    if (t->depth != 0) totals.violations++;
  }
  totals.stall_ns = g_stall_ns.load();
  return totals;
}

std::string CheckTrace(const TraceTotals& t) {
  if (t.violations != 0) {
    return std::to_string(t.violations) +
           " spans with negative self time, outside their parent, or "
           "unbalanced";
  }
  for (int i = 0; i <= kNumOps; i++) {
    if (t.ops[i].SelfSum() != t.ops[i].total_ns) {
      return "op bucket " + std::to_string(i) + ": self times sum to " +
             std::to_string(t.ops[i].SelfSum()) + " ns, op time is " +
             std::to_string(t.ops[i].total_ns) + " ns";
    }
  }
  return "";
}

Span::Span(SpanKind kind) : kind_(kind) { Tl()->Begin(kind); }
Span::~Span() { Tl()->End(kind_); }

OpSpan::OpSpan(bool enabled, OpType op) : enabled_(enabled) {
  if (!enabled_) return;
  ThreadTrace* t = Tl();
  if (t->depth == 0) t->op = op;
  t->Begin(kRoot);
}

OpSpan::~OpSpan() {
  if (enabled_) Tl()->End(kRoot);
}

std::unique_ptr<Env> NewTracingEnv(Env* base) {
  return std::make_unique<TracingEnv>(base);
}

std::unique_ptr<Comparator> NewCountingComparator(const Comparator* base) {
  return std::make_unique<CountingComparator>(base);
}

std::shared_ptr<const FprAllocationPolicy> NewTimedPolicy(
    std::shared_ptr<const FprAllocationPolicy> base) {
  return std::make_shared<TimedPolicy>(std::move(base));
}

std::shared_ptr<monkeydb::EventListener> NewSpanListener() {
  return std::make_shared<SpanListener>();
}

}  // namespace perfbench
