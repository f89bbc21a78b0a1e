#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

namespace perfbench {

namespace {

constexpr char kHex[] = "0123456789abcdef";

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

char FillerByte(const char* key, size_t j) {
  return static_cast<char>(
      'a' + (static_cast<unsigned char>(key[j % kKeySize]) * 31 + j) % 26);
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

KeySpace::KeySpace(uint64_t seed, uint64_t count)
    : salt_(Mix64(seed ^ 0x6d6f6e6b6579ULL)), count_(count) {
  buf_.resize(count * kKeySize);
  for (uint64_t id = 0; id < count; id++) {
    uint64_t x = Mix64(id ^ salt_);
    char* out = buf_.data() + id * kKeySize;
    for (int i = 15; i >= 0; i--, x >>= 4) out[i] = kHex[x & 15];
  }
}

bool KeySpace::IdOf(const Slice& key, uint64_t* id) const {
  if (key.size() != kKeySize) return false;
  uint64_t x = 0;
  for (size_t i = 0; i < kKeySize; i++) {
    const int d = HexDigit(key[i]);
    if (d < 0) return false;
    x = (x << 4) | static_cast<uint64_t>(d);
  }
  *id = Unmix64(x) ^ salt_;
  return *id < count_;
}

void MakeValue(const Slice& key, uint32_t version, char* out) {
  memcpy(out, key.data(), kKeySize);
  out[kKeySize] = '@';
  for (int i = 7; i >= 0; i--, version >>= 4) {
    out[kKeySize + 1 + i] = kHex[version & 15];
  }
  for (size_t j = kKeySize + 9; j < kValueSize; j++) {
    out[j] = FillerByte(key.data(), j);
  }
}

bool CheckValue(const Slice& key, const Slice& value, uint32_t* version) {
  if (key.size() != kKeySize || value.size() != kValueSize) return false;
  if (memcmp(value.data(), key.data(), kKeySize) != 0) return false;
  if (value[kKeySize] != '@') return false;
  uint32_t v = 0;
  for (size_t i = 0; i < 8; i++) {
    const int d = HexDigit(value[kKeySize + 1 + i]);
    if (d < 0) return false;
    v = (v << 4) | static_cast<uint32_t>(d);
  }
  for (size_t j = kKeySize + 9; j < kValueSize; j++) {
    if (value[j] != FillerByte(key.data(), j)) return false;
  }
  *version = v;
  return true;
}

double Samples::PercentileUs(double q) {
  if (ns_.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * ns_.size()));
  rank = std::clamp<size_t>(rank, 1, ns_.size()) - 1;
  std::nth_element(ns_.begin(), ns_.begin() + rank, ns_.end());
  return ns_[rank] / 1000.0;
}

double Samples::MaxUs() const {
  if (ns_.empty()) return 0;
  return *std::max_element(ns_.begin(), ns_.end()) / 1000.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

void Series::Add(const std::string& name, double value) {
  values_[name].push_back(value);
}

void Series::AddLatency(const std::string& name, Samples* window) {
  Add(name + "_p50_us", window->PercentileUs(0.50));
  Add(name + "_p99_us", window->PercentileUs(0.99));
  pooled_[name].Append(*window);
  window->Clear();
}

size_t Series::windows(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second.size();
}

void Series::Print(Report* report) {
  // The end-to-end metrics, in BENCHMARK.json's order. The p99s are
  // information only: on a shared host they follow the hypervisor's
  // scheduling of this guest (one of them swung 3x between seeds).
  static const struct {
    const char* name;
    const char* unit;
  } kEndToEnd[] = {
      {"ops_per_s", "ops/s"}, {"get_p50_us", "us"},
      {"multikey_p50_us", "us"}, {"put_p50_us", "us"},
      {"write_amp", "ratio"},   {"space_amp", "ratio"},
      {"setup_s", "s"},
  };
  for (const auto& m : kEndToEnd) {
    const auto it = values_.find(m.name);
    report->Metric(m.name, it == values_.end() ? 0.0 : Median(it->second),
                   m.unit);
  }
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  report->Info("windows", windows("ops_per_s"));
  for (const auto& [name, values] : values_) {
    std::string list;
    for (double v : values) {
      if (!list.empty()) list += ' ';
      list += std::to_string(v);
    }
    report->InfoText(name + "_windows", list);
  }
  for (auto& [name, samples] : pooled_) {
    report->Info(name + "_samples", samples.size());
    report->Info(name + "_p999_us", samples.PercentileUs(0.999));
    report->Info(name + "_max_us", samples.MaxUs());
  }
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux.
}

uint64_t ProcessWriteBytes() {
  std::ifstream in("/proc/self/io");
  std::string name;
  uint64_t value = 0;
  while (in >> name >> value) {
    if (name == "wchar:") return value;
  }
  return 0;
}

HostCpu ReadHostCpu() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  in >> cpu;
  for (uint64_t& x : v) in >> x;
  // user nice system idle iowait irq softirq steal
  HostCpu h;
  h.steal = v[7];
  for (uint64_t x : v) h.total += x;
  return h;
}

uint64_t DirBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

void ResetDir(const std::string& dir) {
  RemoveDir(dir);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
}

double RunThreads(int n, double seconds,
                  const std::function<void(int, const std::atomic<bool>&)>&
                      body) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < n; i++) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      body(i, stop);
    });
  }
  while (ready.load() < n) std::this_thread::yield();
  const uint64_t start = NowNs();
  go.store(true);
  if (seconds > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
  }
  const uint64_t stopped = NowNs();
  for (std::thread& t : threads) t.join();
  return ((seconds > 0 ? stopped : NowNs()) - start) / 1e9;
}

void Report::Metric(const std::string& name, double value, const char* unit) {
  metrics_.push_back("\"" + name + "\": {\"value\": " + JsonNumber(value) +
                     ", \"unit\": \"" + unit + "\"}");
}

void Report::Info(const std::string& name, double value) {
  info_.push_back("\"" + name + "\": " + JsonNumber(value));
}

void Report::InfoText(const std::string& name, const std::string& value) {
  info_.push_back("\"" + name + "\": \"" + value + "\"");
}

void Report::Fail(const std::string& why) {
  fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  InfoText("failure", why);
  correct_ = false;
}

void Report::Print(uint64_t attempted, uint64_t failed) const {
  std::string info = "{\"info\": {\"hardware_threads\": " +
                     std::to_string(std::thread::hardware_concurrency());
  for (const std::string& field : info_) info += ", " + field;
  printf("%s}}\n", info.c_str());
  std::string metrics;
  for (const std::string& m : metrics_) {
    metrics += (metrics.empty() ? "" : ", ") + m;
  }
  printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct_ && failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.c_str());
  fflush(stdout);
}

}  // namespace perfbench
