// Shared pieces of the MonkeyDB benchmark program: seeded key and value
// generation, per-operation latency samples, process counters and the
// result printer.
//
// Every input an operation consumes (keys, values, op streams, encoded
// RESP requests) is generated from the workload seed before the clock
// starts; timed regions only index into these buffers.

#ifndef MONKEYDB_PERFBENCH_BENCH_H_
#define MONKEYDB_PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/slice.h"

namespace perfbench {

using monkeydb::Slice;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// SplitMix64's finalizer: a bijection on 64-bit words.
inline uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Multiplicative inverse modulo 2^64 (Newton's iteration; c must be odd).
constexpr uint64_t InverseMod64(uint64_t c) {
  uint64_t x = c;
  for (int i = 0; i < 6; i++) x *= 2 - c * x;
  return x;
}

inline uint64_t Unmix64(uint64_t z) {
  z ^= (z >> 31) ^ (z >> 62);
  z *= InverseMod64(0x94d049bb133111ebULL);
  z ^= (z >> 27) ^ (z >> 54);
  z *= InverseMod64(0xbf58476d1ce4e5b9ULL);
  return z ^ (z >> 30) ^ (z >> 60);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    return Mix64(state_);
  }
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

constexpr size_t kKeySize = 16;
constexpr size_t kValueSize = 100;
constexpr uint32_t kAbsent = UINT32_MAX;

// Key of id: 16 hex digits of a seeded bijective mix of the id, so distinct
// ids give distinct keys scattered uniformly over the key order, and a key
// read back from the store maps back to its id.
class KeySpace {
 public:
  KeySpace(uint64_t seed, uint64_t count);

  Slice key(uint64_t id) const {
    return Slice(buf_.data() + id * kKeySize, kKeySize);
  }
  // The id a well-formed key of this space encodes, or false.
  bool IdOf(const Slice& key, uint64_t* id) const;

 private:
  uint64_t salt_;
  uint64_t count_;
  std::string buf_;
};

// Values are kValueSize bytes: the key, '@', the version as 8 hex digits,
// then filler derived from the key. CheckValue recomputes all of it.
void MakeValue(const Slice& key, uint32_t version, char* out);
bool CheckValue(const Slice& key, const Slice& value, uint32_t* version);

// Latency samples of one operation type, in nanoseconds.
class Samples {
 public:
  void Add(uint64_t ns) {
    ns_.push_back(ns > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(ns));
  }
  void Append(const Samples& other) {
    ns_.insert(ns_.end(), other.ns_.begin(), other.ns_.end());
  }
  void Clear() { ns_.clear(); }
  size_t size() const { return ns_.size(); }
  // Nearest-rank percentile in microseconds (q in [0, 1]); 0 if empty.
  double PercentileUs(double q);
  double MaxUs() const;

 private:
  std::vector<uint32_t> ns_;
};

double Median(std::vector<double> v);

class Report;

// The values of a run's end-to-end metrics per window (a slice of the
// measured time, one fill or one round). Each metric is reported as the
// median over windows, so one disturbed window does not move it.
class Series {
 public:
  void Add(const std::string& name, double value);
  // Adds <name>_p50_us and <name>_p99_us of the window's samples, keeps
  // the samples for the run-wide tails, and clears them.
  void AddLatency(const std::string& name, Samples* window);
  size_t windows(const std::string& name) const;
  // Prints the end-to-end metrics (medians) and, as information, each
  // latency's sample count, p999 and maximum over the whole run.
  void Print(Report* report);

 private:
  std::map<std::string, std::vector<double>> values_;
  std::map<std::string, Samples> pooled_;
};

// Process counters.
double PeakRssMb();
uint64_t ProcessWriteBytes();  // wchar: bytes passed to write(2)/pwrite(2).
uint64_t DirBytes(const std::string& dir);
// Cumulative CPU time of the whole host, in /proc/stat ticks: the part the
// hypervisor gave to other guests while this one wanted to run, and all.
struct HostCpu {
  uint64_t steal = 0;
  uint64_t total = 0;
};
HostCpu ReadHostCpu();
void RemoveDir(const std::string& dir);
void ResetDir(const std::string& dir);  // Empty, created with parents.

// Runs body(i, stop) on n client threads released together. With
// seconds > 0 the loop is closed on time: *stop turns true after that many
// seconds and each body returns at its next check. With seconds == 0 each
// body runs its fixed work to the end. Returns the seconds from release to
// stop (or to the last body's return).
double RunThreads(int n, double seconds,
                  const std::function<void(int, const std::atomic<bool>&)>&
                      body);

// Collects the metrics of one run and prints them: an informational JSON
// line (hardware_threads, sample counts, tails) and, last, the result line
// {"correct", "attempted", "failed", "metrics"}.
class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit);
  void Info(const std::string& name, double value);
  void InfoText(const std::string& name, const std::string& value);
  void Fail(const std::string& why);  // Marks the run incorrect.
  bool correct() const { return correct_; }
  void Print(uint64_t attempted, uint64_t failed) const;

 private:
  std::vector<std::string> metrics_;
  std::vector<std::string> info_;
  bool correct_ = true;
};

}  // namespace perfbench

#endif  // MONKEYDB_PERFBENCH_BENCH_H_
