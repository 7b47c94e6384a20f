#include "harness.h"

#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace perfbench {

uint64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

namespace {

uint64_t SplitMix(uint64_t& x) {
  uint64_t z = (x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  for (uint64_t& s : s_) s = SplitMix(seed);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = seed * 0x100000001b3ull + stream;
  SplitMix(x);
  return SplitMix(x);
}

Zipf::Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
  double zeta2 = 0;
  zetan_ = 0;
  for (uint64_t i = 1; i <= n; ++i) {
    zetan_ += 1.0 / std::pow(static_cast<double>(i), theta);
    if (i == 2) zeta2 = zetan_;
  }
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2 / zetan_);
}

uint64_t Zipf::Next(Rng& rng) const {
  const double u = rng.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const uint64_t rank = static_cast<uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return std::min(rank, n_ - 1);
}

double Percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::vector<std::pair<std::string, double>> SummarizeRounds(
    std::vector<Round> rounds) {
  std::vector<double> ops, w50, w99, r50, r99;
  for (Round& r : rounds) {
    const double seconds = static_cast<double>(r.end_ns - r.start_ns) / 1e9;
    ops.push_back(seconds > 0 ? static_cast<double>(r.ops) / seconds : 0);
    w50.push_back(Percentile(r.lat.write_us, 50));
    w99.push_back(Percentile(r.lat.write_us, 99));
    r50.push_back(Percentile(r.lat.read_us, 50));
    r99.push_back(Percentile(r.lat.read_us, 99));
  }
  return {{"ops_per_s", Median(ops)},
          {"write_p50_us", Median(w50)},
          {"write_p99_us", Median(w99)},
          {"read_p50_us", Median(r50)},
          {"read_p99_us", Median(r99)}};
}

uint64_t SelfTimeNs(std::pair<uint64_t, uint64_t> interval,
                    std::vector<std::pair<uint64_t, uint64_t>> children) {
  const auto [start, end] = interval;
  if (end <= start) return 0;
  for (auto& c : children) {
    c.first = std::clamp(c.first, start, end);
    c.second = std::clamp(c.second, start, end);
  }
  std::sort(children.begin(), children.end());
  uint64_t covered = 0;
  uint64_t cursor = start;
  for (const auto& [lo, hi] : children) {
    const uint64_t from = std::max(lo, cursor);
    if (hi > from) {
      covered += hi - from;
      cursor = hi;
    }
  }
  return (end - start) - covered;
}

std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].push_back(
          {s.start_ns, s.end_ns});
    }
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = SelfTimeNs({spans[i].start_ns, spans[i].end_ns},
                         std::move(children[i]));
  }
  return self;
}

std::vector<SpanTotals> AggregateSpans(
    const std::vector<const SpanLog*>& logs, size_t num_names) {
  std::vector<SpanTotals> totals(num_names);
  for (const SpanLog* log : logs) {
    const auto& spans = log->spans();
    const std::vector<uint64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      SpanTotals& t = totals.at(spans[i].name);
      const double duration =
          static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      ++t.count;
      t.total_ns += duration;
      t.self_ns += static_cast<double>(self[i]);
      t.durations_ns.push_back(duration);
    }
  }
  return totals;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs,
                const std::vector<std::string>& names, bool append) {
  std::FILE* f = std::fopen(path.c_str(), append ? "a" : "w");
  if (f == nullptr) return false;
  for (size_t t = 0; t < logs.size(); ++t) {
    const auto& spans = logs[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu %zu %u %d %s %llu %llu\n", t, i, s.op, s.parent,
                   names.at(s.name).c_str(),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

void SharedMetrics::Put(const std::string& name, double value,
                        const std::string& unit) {
  const int i = count.load(std::memory_order_relaxed);
  if (i >= kMaxMetrics) return;
  Slot& slot = slots[i];
  std::snprintf(slot.name, sizeof(slot.name), "%s", name.c_str());
  std::snprintf(slot.unit, sizeof(slot.unit), "%s", unit.c_str());
  slot.value = value;
  count.store(i + 1, std::memory_order_release);
}

std::vector<Metric> SharedMetrics::Read() const {
  std::vector<Metric> out;
  const int n = count.load(std::memory_order_acquire);
  for (int i = 0; i < n; ++i) {
    out.push_back({slots[i].name, slots[i].value, slots[i].unit});
  }
  return out;
}

void* MapShared(size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  return p == MAP_FAILED ? nullptr : p;
}

void UnmapShared(void* p, size_t bytes) {
  if (p != nullptr) munmap(p, bytes);
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("attempted %llu failed %llu correct %s\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              correct ? "true" : "false");
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

uint64_t PeakRssBytes(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoull(line.substr(6)) * 1024;
    }
  }
  return 0;
}

uint64_t AllocatedBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    struct stat st;
    if (entry.is_regular_file() && ::stat(entry.path().c_str(), &st) == 0) {
      total += static_cast<uint64_t>(st.st_blocks) * 512;
    }
  }
  return total;
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

bool MakeDirs(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return !ec;
}

void KillAndReap(pid_t pid) {
  if (pid <= 0) return;
  ::kill(pid, SIGKILL);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
}

}  // namespace perfbench
