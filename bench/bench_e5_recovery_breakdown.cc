// Experiment E5 — where recovery time goes. Log-based recovery splits
// into checkpoint load + log replay + index rebuild (each scales with
// data); instant restart splits into map + in-flight fixup + volatile
// attach (none scale with data). All numbers come from the recovery
// span trace the engine records (RecoveryReport::trace), not from
// stopwatches in this benchmark.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "obs/trace.h"
#include "workload/enterprise.h"

using namespace hyrise_nv;  // NOLINT: benchmark brevity

namespace {

std::unique_ptr<core::Database> BuildAndCrash(core::DurabilityMode mode,
                                              uint64_t rows,
                                              const std::string& dir,
                                              bool with_checkpoint) {
  auto options = bench::EngineOptions(mode, dir, size_t{512} << 20);
  auto db = bench::Unwrap(core::Database::Create(options), "create");
  workload::EnterpriseConfig config;
  const uint64_t first_half = with_checkpoint ? rows / 2 : rows;
  (void)bench::Unwrap(workload::LoadEnterpriseTable(db.get(), "enterprise",
                                                    first_half, config),
                      "load");
  bench::Die(db->CreateIndex("enterprise", 0), "index");
  if (with_checkpoint) {
    bench::Die(db->Checkpoint(), "checkpoint");
    // Second half lands in the log tail only.
    storage::Table* table =
        bench::Unwrap(db->GetTable("enterprise"), "table");
    auto tx = bench::Unwrap(db->Begin(), "begin");
    workload::EnterpriseConfig tail = config;
    tail.seed += 17;
    for (uint64_t r = first_half; r < rows; ++r) {
      std::vector<storage::Value> row = table->GetRow({false, 0});
      auto insert = db->Insert(tx, table, row);
      bench::Die(insert.status(), "tail insert");
      if ((r + 1) % 1024 == 0) {
        bench::Die(db->Commit(tx), "tail commit");
        tx = bench::Unwrap(db->Begin(), "begin");
      }
    }
    bench::Die(db->Commit(tx), "tail commit");
  }
  return bench::Unwrap(core::Database::CrashAndRecover(std::move(db)),
                       "recover");
}

/// Seconds of a named span in the recovery trace (0 when the phase did
/// not run, e.g. checkpoint_load without a checkpoint).
double Phase(const obs::SpanNode& trace, const char* name) {
  const obs::SpanNode* span = trace.Find(name);
  return span != nullptr ? span->seconds : 0;
}

void PrintJson(const char* config, const obs::SpanNode& trace,
               uint64_t replayed_records) {
  std::printf(
      "BENCH_JSON {\"bench\":\"e5\",\"config\":\"%s\","
      "\"total_ms\":%.3f,\"checkpoint_load_ms\":%.3f,\"replay_ms\":%.3f,"
      "\"index_rebuild_ms\":%.3f,\"map_ms\":%.3f,\"fixup_ms\":%.3f,"
      "\"attach_ms\":%.3f,\"replayed_records\":%llu}\n",
      config, trace.seconds * 1e3, Phase(trace, "checkpoint_load") * 1e3,
      Phase(trace, "replay") * 1e3, Phase(trace, "index_rebuild") * 1e3,
      Phase(trace, "map") * 1e3, Phase(trace, "fixup") * 1e3,
      Phase(trace, "attach") * 1e3,
      static_cast<unsigned long long>(replayed_records));
}

/// NVM open cost against delta size: a table whose two columns hold
/// only distinct values (so every row adds two delta-dictionary
/// entries), each column under an ordered index, crashed and reopened
/// through the fast path. Open does no work proportional to the delta,
/// so the curve should be flat.
void OpenSweepPoint(uint64_t rows) {
  const std::string dir = bench::MakeBenchDir("e5");
  auto options = bench::EngineOptions(core::DurabilityMode::kNvm, dir,
                                      size_t{512} << 20);
  auto db = bench::Unwrap(core::Database::Create(options), "create");
  auto schema = bench::Unwrap(
      storage::Schema::Make({{"k", storage::DataType::kInt64},
                             {"name", storage::DataType::kString}}),
      "schema");
  storage::Table* table = bench::Unwrap(db->CreateTable("t", schema), "t");
  bench::Die(db->CreateOrderedIndex("t", 0), "index k");
  bench::Die(db->CreateOrderedIndex("t", 1), "index name");
  auto tx = bench::Unwrap(db->Begin(), "begin");
  for (uint64_t r = 0; r < rows; ++r) {
    const auto key = static_cast<int64_t>(r);
    bench::Die(db->Insert(tx, table,
                          {storage::Value(key),
                           storage::Value("n" + std::to_string(key))})
                   .status(),
               "insert");
    if ((r + 1) % 1024 == 0) {
      bench::Die(db->Commit(tx), "commit");
      tx = bench::Unwrap(db->Begin(), "begin");
    }
  }
  bench::Die(db->Commit(tx), "commit");
  const uint64_t entries = table->delta().column(0).dictionary().size() +
                           table->delta().column(1).dictionary().size();
  db = bench::Unwrap(core::Database::CrashAndRecover(std::move(db)),
                     "recover");
  const obs::SpanNode& trace = db->last_recovery_report().trace;
  std::printf("  %8llu delta-dictionary entries: open %.3f ms "
              "(attach_catalog %.3f, attach_index_sets %.3f)\n",
              static_cast<unsigned long long>(entries), trace.seconds * 1e3,
              Phase(trace, "attach_catalog") * 1e3,
              Phase(trace, "attach_index_sets") * 1e3);
  std::printf(
      "BENCH_JSON {\"bench\":\"e5_open_sweep\",\"rows\":%llu,"
      "\"dict_entries\":%llu,\"open_ms\":%.3f,"
      "\"attach_catalog_ms\":%.3f,\"attach_index_sets_ms\":%.3f}\n",
      static_cast<unsigned long long>(rows),
      static_cast<unsigned long long>(entries), trace.seconds * 1e3,
      Phase(trace, "attach_catalog") * 1e3,
      Phase(trace, "attach_index_sets") * 1e3);
  db.reset();
  bench::RemoveBenchDir(dir);
}

}  // namespace

int main() {
  const uint64_t rows = bench::Scaled(20000);
  std::printf("E5 — recovery phase breakdown, %llu-row dataset\n\n",
              static_cast<unsigned long long>(rows));

  // Log engine, checkpoint + tail replay.
  {
    const std::string dir = bench::MakeBenchDir("e5");
    auto db = BuildAndCrash(core::DurabilityMode::kWalValue, rows, dir,
                            /*with_checkpoint=*/true);
    const auto& report = db->last_recovery_report();
    std::printf("log-based (checkpoint at 50%% of data), %llu records "
                "replayed:\n%s",
                static_cast<unsigned long long>(
                    report.log.replayed_records),
                report.trace.Render().c_str());
    PrintJson("wal-checkpoint", report.trace,
              report.log.replayed_records);
    bench::RemoveBenchDir(dir);
  }

  // Log engine without a checkpoint (pure replay).
  {
    const std::string dir = bench::MakeBenchDir("e5");
    auto db = BuildAndCrash(core::DurabilityMode::kWalValue, rows, dir,
                            /*with_checkpoint=*/false);
    const auto& report = db->last_recovery_report();
    std::printf("\nlog-based (no checkpoint, full replay), %llu records "
                "replayed:\n%s",
                static_cast<unsigned long long>(
                    report.log.replayed_records),
                report.trace.Render().c_str());
    PrintJson("wal-full-replay", report.trace,
              report.log.replayed_records);
    bench::RemoveBenchDir(dir);
  }

  // Instant restart.
  {
    const std::string dir = bench::MakeBenchDir("e5");
    auto db = BuildAndCrash(core::DurabilityMode::kNvm, rows, dir,
                            /*with_checkpoint=*/false);
    const auto& report = db->last_recovery_report();
    std::printf("\nhyrise-nv (instant restart):\n%s",
                report.trace.Render().c_str());
    PrintJson("nvm-instant-restart", report.trace, 0);
    bench::RemoveBenchDir(dir);
  }

  // Instant restart against delta size.
  std::printf("\nhyrise-nv open vs delta-dictionary size (ordered "
              "indexes on both columns):\n");
  for (uint64_t sweep_rows : {25000, 100000, 400000}) {
    OpenSweepPoint(bench::Scaled(sweep_rows));
  }

  std::printf("\npaper shape check: every log-recovery phase scales with "
              "data; every instant-restart phase is constant or "
              "delta-bounded\n");
  return 0;
}
