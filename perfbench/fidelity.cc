// Wrapper fidelity: the traced run must take the same engine paths as the
// plain one. One client thread replays a seeded scenario (fill, then Gets,
// zero-result Gets, MultiGets, Puts and scans) three times — plain, plain
// again, and on a wrapped store — and the DbStats probe and compaction
// counters must agree exactly.

#include <cstdio>
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

constexpr uint64_t kEntries = 40000;
constexpr int kOps = 20000;

// The DbStats counters that must not depend on the wrappers, as text.
std::string FidelityCounters(const monkeydb::DbStats& s) {
  char buf[256];
  snprintf(buf, sizeof(buf),
           "gets=%llu filter_negatives=%llu false_positives=%llu "
           "runs_probed=%llu flushes=%llu merges=%llu entries_compacted=%llu",
           static_cast<unsigned long long>(s.gets),
           static_cast<unsigned long long>(s.filter_negatives),
           static_cast<unsigned long long>(s.false_positives),
           static_cast<unsigned long long>(s.runs_probed),
           static_cast<unsigned long long>(s.flushes),
           static_cast<unsigned long long>(s.merges),
           static_cast<unsigned long long>(s.entries_compacted));
  return buf;
}

// Returns the counters, or an empty string if an operation failed.
std::string Scenario(const std::string& dir, uint64_t seed, bool wrapped) {
  ResetDir(dir);
  const KeySpace keys(seed, 2 * kEntries);
  monkeydb::BlockCache cache(1 << 20);
  DbOptions o = BaseDbOptions();
  o.fpr_policy = std::make_shared<monkeydb::monkey::MonkeyFprPolicy>();
  o.block_cache = &cache;
  Instrumentation wrappers;
  if (wrapped) wrappers.Apply(&o);
  std::unique_ptr<DB> db;
  if (!DB::Open(o, dir, &db).ok()) return "";

  char value[kValueSize];
  WriteOptions wo;
  for (uint64_t id = 0; id < kEntries; id++) {
    MakeValue(keys.key(id), 0, value);
    if (!db->Put(wo, keys.key(id), Slice(value, kValueSize)).ok()) return "";
  }
  if (!db->Flush().ok()) return "";

  Rng rng(Mix64(seed) ^ 0x3000);
  ReadOptions ro;
  std::string got;
  std::vector<Slice> batch(16);
  std::vector<std::string> batch_values;
  for (int i = 0; i < kOps; i++) {
    const uint64_t roll = rng.Uniform(10);
    const uint64_t id = rng.Uniform(kEntries);
    if (roll < 4) {
      if (!db->Get(ro, keys.key(id), &got).ok()) return "";
    } else if (roll < 7) {
      if (!db->Get(ro, keys.key(kEntries + id), &got).IsNotFound()) return "";
    } else if (roll < 8) {
      for (size_t k = 0; k < batch.size(); k++) {
        batch[k] = keys.key(rng.Uniform(2 * kEntries));
      }
      const std::vector<Status> st = db->MultiGet(ro, batch, &batch_values);
      for (const Status& s : st) {
        if (!s.ok() && !s.IsNotFound()) return "";
      }
    } else if (roll < 9) {
      MakeValue(keys.key(id), static_cast<uint32_t>(i + 1), value);
      if (!db->Put(wo, keys.key(id), Slice(value, kValueSize)).ok()) return "";
    } else {
      std::unique_ptr<monkeydb::Iterator> it = db->NewIterator(ro);
      it->Seek(keys.key(id));
      for (int n = 0; n < 32 && it->Valid(); n++) it->Next();
      if (!it->status().ok()) return "";
    }
  }
  if (!db->Flush().ok()) return "";
  return FidelityCounters(db->GetStats());
}

}  // namespace

std::string CheckWrapperFidelity(const std::string& dir, uint64_t seed) {
  const std::string first = Scenario(dir, seed, false);
  const std::string second = Scenario(dir, seed, false);
  const std::string wrapped = Scenario(dir, seed, true);
  RemoveDir(dir);
  if (first.empty() || second.empty() || wrapped.empty()) {
    return "an operation of the scenario failed";
  }
  if (first != second) return "plain runs differ: " + first + " vs " + second;
  if (first != wrapped) {
    return "wrapped run differs: " + first + " vs " + wrapped;
  }
  return "";
}

}  // namespace perfbench
