// Golden cascade traces: every flush and compaction the engine performs for
// a seeded, single-incarnation put/delete mix, plus the final per-level
// runs, entries and filter bits, must match constants captured from a
// known-good build. Any change to the merge sequence of leveling, tiering
// or lazy leveling (which runs merge, when, into which level, with how
// many subcompactions) or to the filter sizing it feeds shows up here. On
// a mismatch the full trace is printed, so the first diverging step can
// be read off directly.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <ostream>
#include <string>

#include "io/env.h"
#include "lsm/db.h"
#include "monkey/monkey_db.h"
#include "obs/event_listener.h"
#include "util/random.h"

namespace monkeydb {
namespace {

// Appends one line per completed flush ("F") and compaction ("C"), each
// followed by the tree it left behind (runs:entries per level), so that
// trivial moves, which fire no event, show up in the next line's shape.
class TraceListener : public EventListener {
 public:
  void OnFlushCompleted(const FlushJobInfo& info) override {
    char line[96];
    snprintf(line, sizeof(line), "F %llu%s%s\n",
             static_cast<unsigned long long>(info.entries),
             info.triggered_merge ? " merge" : "", info.ok ? "" : " FAILED");
    trace += line;
    AppendShape();
  }
  void OnCompactionCompleted(const CompactionJobInfo& info) override {
    char line[160];
    snprintf(line, sizeof(line), "C L%d->L%d runs=%llu in=%llu out=%llu "
             "sub=%llu%s\n",
             info.input_level, info.output_level,
             static_cast<unsigned long long>(info.input_runs),
             static_cast<unsigned long long>(info.input_entries),
             static_cast<unsigned long long>(info.output_entries),
             static_cast<unsigned long long>(info.subcompactions),
             info.ok ? "" : " FAILED");
    trace += line;
    AppendShape();
  }

  const DB* db = nullptr;  // Set once Open returns.
  std::string trace;

 private:
  void AppendShape() {
    if (db == nullptr) return;
    const DbStats stats = db->GetStats();
    trace += " ";
    for (size_t i = 0; i < stats.runs_per_level.size(); i++) {
      char level[48];
      snprintf(level, sizeof(level), " %llu:%llu",
               static_cast<unsigned long long>(stats.runs_per_level[i]),
               static_cast<unsigned long long>(stats.entries_per_level[i]));
      trace += level;
    }
    trace += "\n";
  }
};

std::string LevelSummary(const DbStats& stats) {
  std::string out;
  for (size_t i = 0; i < stats.runs_per_level.size(); i++) {
    char line[128];
    snprintf(line, sizeof(line), "L%zu runs=%llu entries=%llu bits=%llu\n",
             i + 1, static_cast<unsigned long long>(stats.runs_per_level[i]),
             static_cast<unsigned long long>(stats.entries_per_level[i]),
             static_cast<unsigned long long>(stats.filter_bits_per_level[i]));
    out += line;
  }
  return out;
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct TraceCase {
  const char* name;
  MergePolicy policy;
  double size_ratio;
  int compaction_threads;
  // Captured from a known-good build.
  int flushes;
  int compactions;
  uint64_t trace_hash;
  const char* final_levels;  // Before CompactAll.
};

// Runs the seeded mix: 20k operations over 6000 keys (85% Put with a
// 32-byte value, 15% Delete), an explicit Flush of the partial memtable,
// then CompactAll. Returns the full trace.
std::string RunCase(const TraceCase& c, std::string* final_levels,
                    int* flushes, int* compactions) {
  auto env = NewMemEnv();
  auto listener = std::make_shared<TraceListener>();
  DbOptions options;
  options.env = env.get();
  options.merge_policy = c.policy;
  options.size_ratio = c.size_ratio;
  options.buffer_size_bytes = 8 << 10;
  options.bits_per_entry = 5.0;
  options.compaction_threads = c.compaction_threads;
  options.fpr_policy = monkey::NewMonkeyFprPolicy();
  options.listeners.push_back(listener);
  std::unique_ptr<DB> db;
  EXPECT_TRUE(DB::Open(options, "/db", &db).ok());
  if (db == nullptr) return "";
  listener->db = db.get();

  WriteOptions wo;
  Random rng(1234);
  const std::string value(32, 'v');
  for (int op = 0; op < 20000; op++) {
    char key[16];
    snprintf(key, sizeof(key), "k%05llu",
             static_cast<unsigned long long>(rng.Uniform(6000)));
    if (rng.Bernoulli(0.85)) {
      EXPECT_TRUE(db->Put(wo, key, value).ok());
    } else {
      EXPECT_TRUE(db->Delete(wo, key).ok());
    }
  }
  EXPECT_TRUE(db->Flush().ok());
  const DbStats before = db->GetStats();
  *final_levels = LevelSummary(before);
  *flushes = static_cast<int>(before.flushes);
  *compactions = static_cast<int>(before.merges);

  EXPECT_TRUE(db->CompactAll().ok());
  std::string trace = listener->trace;
  trace += "-- final\n" + *final_levels;
  trace += "-- compacted\n" + LevelSummary(db->GetStats());
  return trace;
}

void PrintTo(const TraceCase& c, std::ostream* os) { *os << c.name; }

class CascadeTrace : public ::testing::TestWithParam<TraceCase> {};

TEST_P(CascadeTrace, MatchesGolden) {
  const TraceCase& c = GetParam();
  std::string final_levels;
  int flushes = 0;
  int compactions = 0;
  const std::string trace = RunCase(c, &final_levels, &flushes, &compactions);
  const uint64_t hash = Fnv1a(trace);
  EXPECT_EQ(flushes, c.flushes);
  EXPECT_EQ(compactions, c.compactions);
  EXPECT_EQ(final_levels, std::string(c.final_levels));
  EXPECT_EQ(hash, c.trace_hash);
  if (HasFailure()) {
    printf("full trace for %s (hash 0x%016llxull):\n%s", c.name,
           static_cast<unsigned long long>(hash), trace.c_str());
  }
}

std::string CaseName(const ::testing::TestParamInfo<TraceCase>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(
    Policies, CascadeTrace,
    ::testing::Values(
        TraceCase{"LevelingT3", MergePolicy::kLeveling, 3.0, 1, 317, 97,
                  0xcd9d25354b172691ull,
                  "L1 runs=1 entries=31 bits=336\n"
                  "L2 runs=1 entries=369 bits=3104\n"
                  "L3 runs=1 entries=1525 bits=9336\n"
                  "L4 runs=1 entries=4867 bits=18648\n"},
        TraceCase{"LevelingT4", MergePolicy::kLeveling, 4.0, 1, 317, 72,
                  0xcf65c4a23fec1a62ull,
                  "L1 runs=1 entries=31 bits=400\n"
                  "L2 runs=1 entries=721 bits=7072\n"
                  "L3 runs=1 entries=2581 bits=17856\n"
                  "L4 runs=1 entries=4712 bits=18992\n"},
        TraceCase{"TieringT3", MergePolicy::kTiering, 3.0, 1, 317, 155,
                  0xbe340403f6542496ull,
                  "L1 runs=2 entries=96 bits=1480\n"
                  "L2 runs=0 entries=0 bits=0\n"
                  "L3 runs=2 entries=1084 bits=11624\n"
                  "L4 runs=2 entries=2992 bits=25224\n"
                  "L5 runs=0 entries=0 bits=0\n"
                  "L6 runs=1 entries=4693 bits=18088\n"},
        TraceCase{"TieringT4", MergePolicy::kTiering, 4.0, 1, 317, 103,
                  0x095e3ab78ff0f9e3ull,
                  "L1 runs=1 entries=31 bits=488\n"
                  "L2 runs=3 entries=747 bits=9496\n"
                  "L3 runs=3 entries=2784 bits=27312\n"
                  "L4 runs=0 entries=0 bits=0\n"
                  "L5 runs=1 entries=4734 bits=19112\n"},
        TraceCase{"LazyLevelingT3", MergePolicy::kLazyLeveling, 3.0, 1, 317,
                  150,
                  0x5623cffc3c5b7814ull,
                  "L1 runs=1 entries=31 bits=368\n"
                  "L2 runs=2 entries=374 bits=3592\n"
                  "L3 runs=0 entries=0 bits=0\n"
                  "L4 runs=1 entries=4918 bits=17536\n"},
        TraceCase{"LazyLevelingT4", MergePolicy::kLazyLeveling, 4.0, 1, 317,
                  102,
                  0x5c00bda31f59c6bdull,
                  "L1 runs=0 entries=0 bits=0\n"
                  "L2 runs=2 entries=462 bits=5368\n"
                  "L3 runs=2 entries=1885 bits=16424\n"
                  "L4 runs=1 entries=4831 bits=17096\n"},
        TraceCase{"LevelingT4Subcompactions", MergePolicy::kLeveling, 4.0, 2,
                  317, 72,
                  0x21269184ae93ccf5ull,
                  "L1 runs=1 entries=31 bits=400\n"
                  "L2 runs=2 entries=721 bits=7072\n"
                  "L3 runs=2 entries=2581 bits=17856\n"
                  "L4 runs=2 entries=4712 bits=18992\n"}),
    CaseName);

}  // namespace
}  // namespace monkeydb
