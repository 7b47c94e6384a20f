// Workload entry points and the metric catalogue they report into.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory for data directories and span files (inside the checkout).
  std::string work_dir;
  /// CLOCK_MONOTONIC stamp at process start, the origin of setup_s.
  uint64_t start_ns = 0;
};

/// What a workload run produced: metric values by name, the operation
/// counts and the correctness verdict.
struct RunResult {
  std::map<std::string, double> values;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = false;
  std::vector<std::string> errors;
};

RunResult RunTpcc(const RunConfig& config, bool nvm);
RunResult RunKvWire(const RunConfig& config);

/// Names and units of the end-to-end metrics (untraced runs) and of the
/// per-layer metrics (traced runs), in print order. BENCHMARK.json lists
/// the same names.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();
/// Span names of the engine's RecoveryReport tree that become
/// recovery.span.<name>_ms.
const std::vector<std::string>& RecoverySpanNames();

/// Per-layer values derived from a span tree given as (name, seconds)
/// pairs of every node: sums each listed name into recovery.span.*_ms.
void AddRecoverySpans(const std::vector<std::pair<std::string, double>>& nodes,
                      std::map<std::string, double>* values);

/// Sets each metric of `samples` to its median over the samples.
void PutMedians(const std::vector<std::map<std::string, double>>& samples,
                std::map<std::string, double>* values);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
