// Shared plumbing of the perfbench harness: clocks, seeded generators,
// latency statistics, the span recorder, the cross-process result block
// and the result printer. Nothing here calls into the engine.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// --- Clock ----------------------------------------------------------------

/// CLOCK_MONOTONIC in nanoseconds. The same clock in every process on
/// the machine, so a parent and its forked engine can compare stamps.
uint64_t NowNs();

// --- Seeded generators ------------------------------------------------------

/// splitmix64-seeded xoshiro256**: the harness's only source of inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed);
  uint64_t Next();
  /// Uniform in [0, bound).
  uint64_t Uniform(uint64_t bound) { return Next() % bound; }
  /// Uniform in [lo, hi].
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Uniform(static_cast<uint64_t>(hi - lo + 1)));
  }
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

 private:
  uint64_t s_[4];
};

/// Zipfian ranks in [0, n) with skew theta (Gray et al.'s generator, the
/// YCSB form). Rank 0 is the hottest.
class Zipf {
 public:
  Zipf(uint64_t n, double theta);
  uint64_t Next(Rng& rng) const;

 private:
  uint64_t n_;
  double theta_, alpha_, zetan_, eta_;
};

/// Derives an independent stream seed for (seed, stream).
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

// --- Statistics ---------------------------------------------------------------

/// Percentile `p` (0..100) of `values` with linear interpolation between
/// the two closest ranks (rank = p/100 * (n-1)). Sorts in place. 0 for
/// an empty sample.
double Percentile(std::vector<double>& values, double p);

/// Latency samples of one measured round, in microseconds.
struct Latencies {
  std::vector<double> write_us, read_us;
};

/// One measured round: a fixed share of the run's operations.
struct Round {
  Latencies lat;
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t start_ns = 0, end_ns = 0;
};

/// The throughput and latency metrics of a run: ops_per_s, write_p50_us,
/// write_p99_us, read_p50_us and read_p99_us, each the median of its
/// per-round values (so one disturbed round does not move the result).
std::vector<std::pair<std::string, double>> SummarizeRounds(
    std::vector<Round> rounds);

/// Median (the mean of the middle two for an even count); 0 when empty.
double Median(std::vector<double> values);

// --- Spans --------------------------------------------------------------------

/// One harness span: a timed call into a layer. `op` groups the spans of
/// one operation; `parent` is the index of the enclosing span in the same
/// recorder, or -1.
struct Span {
  uint32_t op = 0;
  int32_t parent = -1;
  uint16_t name = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Length of `interval` not covered by the union of `children` (each
/// clipped to the interval). Children may nest or overlap each other.
uint64_t SelfTimeNs(std::pair<uint64_t, uint64_t> interval,
                    std::vector<std::pair<uint64_t, uint64_t>> children);

/// Self time of every span in `spans` (index-aligned): its duration minus
/// the time its direct children cover.
std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans);

/// Per-thread span recorder. Spans stay in memory until the run ends.
/// When disabled every call is a branch and nothing else.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  void BeginOp(uint32_t op) { op_ = op; }
  int32_t Open(uint16_t name) {
    if (!enabled_) return -1;
    Span s;
    s.op = op_;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.name = name;
    s.start_ns = NowNs();
    spans_.push_back(s);
    stack_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return stack_.back();
  }
  void Close(int32_t idx) {
    if (idx < 0) return;
    spans_[idx].end_ns = NowNs();
    stack_.pop_back();
  }
  /// Records an already-timed span (e.g. a pipelined request whose start
  /// and end are seen at different places).
  void Add(uint16_t name, uint64_t start_ns, uint64_t end_ns) {
    if (!enabled_) return;
    Span s;
    s.op = op_;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.name = name;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    spans_.push_back(s);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  uint32_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(SpanLog& log, uint16_t name) : log_(log), idx_(log.Open(name)) {}
  ~Scoped() { log_.Close(idx_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
  int32_t idx_;
};

/// Per span name: count, summed duration and summed self time.
struct SpanTotals {
  uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
  std::vector<double> durations_ns;
};
/// Aggregates spans of several recorders by name id.
std::vector<SpanTotals> AggregateSpans(
    const std::vector<const SpanLog*>& logs, size_t num_names);

/// Appends the spans of `logs` to `path` as text, one span a line:
/// `<thread> <index> <op> <parent> <name> <start_ns> <end_ns>`.
bool WriteSpans(const std::string& path, const std::vector<const SpanLog*>& logs,
                const std::vector<std::string>& names, bool append);

// --- Results ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Fixed-size metric slots in memory shared between the harness and the
/// engine process it forks, so the engine can report before it is killed.
struct SharedMetrics {
  static constexpr int kMaxMetrics = 160;
  struct Slot {
    char name[64];
    char unit[16];
    double value;
  };
  std::atomic<int> count{0};
  Slot slots[kMaxMetrics];

  void Put(const std::string& name, double value, const std::string& unit);
  std::vector<Metric> Read() const;
};

/// Anonymous MAP_SHARED memory that survives fork; the child's writes are
/// visible to the parent even after the child is killed.
void* MapShared(size_t bytes);
void UnmapShared(void* p, size_t bytes);

/// Prints every metric (name, value, unit) to stdout, then the result
/// line `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}` last.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics);

// --- Process and filesystem helpers ---------------------------------------

/// VmHWM of `pid` in bytes (0 when unreadable).
uint64_t PeakRssBytes(pid_t pid);
/// Bytes of disk blocks allocated to the regular files under `dir`.
uint64_t AllocatedBytes(const std::string& dir);
/// rm -rf.
void RemoveTree(const std::string& dir);
/// mkdir -p.
bool MakeDirs(const std::string& dir);

/// Sends SIGKILL to `pid` and reaps it.
void KillAndReap(pid_t pid);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
