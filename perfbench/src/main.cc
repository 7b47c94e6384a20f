// perfbench: one workload per invocation.
//
//   perfbench --workload <tpcc_nvm|tpcc_wal|kv_wire> --seed N --seconds S
//             --trace <0|1> --work-dir DIR
//
// Prints every metric by name with its unit, then the result line.
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// metrics (README.md lists what each should move).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},
      {"ops_per_s", "ops/s"},
      {"write_p50_us", "us"},
      {"write_p99_us", "us"},
      {"read_p50_us", "us"},
      {"read_p99_us", "us"},
      {"restart_ms", "ms"},
      {"recovered_ms", "ms"},
      {"footprint_bytes_per_row", "B/row"},
      {"peak_rss_mb", "MiB"},
  };
  return kMetrics;
}

const std::vector<std::string>& RecoverySpanNames() {
  static const std::vector<std::string> kNames = {
      "map",          "verify",          "fixup",
      "attach_catalog", "attach_txn_manager", "rollforward_commits",
      "attach",       "repair_torn_inserts", "attach_index_sets",
      "checkpoint_load", "analysis",     "scan_commits",
      "build_index",  "reserve",         "replay",
      "apply",        "index_rebuild",   "rebuild_image",
      "install_image"};
  return kNames;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics =
      [] {
        std::vector<std::pair<std::string, std::string>> m = {
            {"core.insert_ns", "ns"},
            {"core.update_ns", "ns"},
            {"core.delete_ns", "ns"},
            {"core.scan_equal_ns", "ns"},
            {"core.scan_range_ns", "ns"},
            {"txn.begin_ns", "ns"},
            {"txn.commit_ns", "ns"},
            {"txn.commit_p99_ns", "ns"},
            {"txn.attempts_per_commit", "count"},
            {"storage.merge_ms", "ms"},
            {"storage.versions_per_row", "count"},
            {"storage.delta_dict_entries", "count"},
            {"alloc.heap_bytes_per_row", "B/row"},
            {"nvm.fences_per_txn", "count"},
            {"nvm.lines_per_txn", "count"},
            {"nvm.bytes_per_txn", "B"},
            {"nvm.persists_per_txn", "count"},
            {"wal.bytes_per_txn", "B"},
            {"wal.syncs_per_txn", "count"},
            {"recovery.open_ms", "ms"},
            {"recovery.first_query_ms", "ms"},
            {"recovery.drain_ms", "ms"},
        };
        for (const std::string& name : RecoverySpanNames()) {
          m.push_back({"recovery.span." + name + "_ms", "ms"});
        }
        for (const char* name :
             {"net.request_us", "net.server_us", "net.stage.parse_us",
              "net.stage.dispatch_us", "net.stage.execute_us",
              "net.stage.wal_sync_us", "net.stage.commit_publish_us",
              "net.stage.write_flush_us", "net.outside_server_us"}) {
          m.push_back({name, "us"});
        }
        m.push_back({"net.restart_exec_ms", "ms"});
        m.push_back({"trace.ops_per_s", "ops/s"});
        return m;
      }();
  return kMetrics;
}

void AddRecoverySpans(const std::vector<std::pair<std::string, double>>& nodes,
                      std::map<std::string, double>* values) {
  for (const std::string& name : RecoverySpanNames()) {
    double ms = 0;
    for (const auto& [node, seconds] : nodes) {
      if (node == name) ms += seconds * 1e3;
    }
    (*values)["recovery.span." + name + "_ms"] = ms;
  }
}

void PutMedians(const std::vector<std::map<std::string, double>>& samples,
                std::map<std::string, double>* values) {
  std::map<std::string, std::vector<double>> by_name;
  for (const auto& sample : samples) {
    for (const auto& [name, value] : sample) by_name[name].push_back(value);
  }
  for (auto& [name, list] : by_name) (*values)[name] = Median(list);
}

}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <tpcc_nvm|tpcc_wal|kv_wire> "
               "--seed N --seconds S --trace <0|1> --work-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  config.start_ns = perfbench::NowNs();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (config.work_dir.empty() || config.seconds < 1 || config.seconds > 60 ||
      !perfbench::MakeDirs(config.work_dir)) {
    return Usage();
  }

  perfbench::RunResult result;
  if (config.workload == "tpcc_nvm") {
    result = perfbench::RunTpcc(config, /*nvm=*/true);
  } else if (config.workload == "tpcc_wal") {
    result = perfbench::RunTpcc(config, /*nvm=*/false);
  } else if (config.workload == "kv_wire") {
    result = perfbench::RunKvWire(config);
  } else {
    return Usage();
  }

  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "check failed: %s\n", error.c_str());
  }
  const auto& catalogue = config.trace ? perfbench::PerLayerMetrics()
                                       : perfbench::EndToEndMetrics();
  std::vector<perfbench::Metric> metrics;
  for (const auto& [name, unit] : catalogue) {
    const auto it = result.values.find(name);
    metrics.push_back({name, it == result.values.end() ? 0.0 : it->second,
                       unit});
  }
  perfbench::PrintResult(result.correct, result.attempted, result.failed,
                         metrics);
  return result.correct ? 0 : 1;
}
