#include "core/database.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <system_error>
#include <thread>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "common/logging.h"
#include "core/query.h"
#include "nvm/nvm_env.h"
#include "obs/blackbox.h"
#include "obs/crash_handler.h"
#include "obs/trace.h"
#include "recovery/log_index.h"
#include "recovery/log_recovery.h"
#include "recovery/verify.h"
#include "storage/mvcc.h"

namespace hyrise_nv::core {

namespace {

void NoteOpened() {
#if HYRISE_NV_METRICS_ENABLED
  static obs::Counter& open_count =
      obs::MetricsRegistry::Instance().GetCounter("db.open.count");
  open_count.Inc();
#endif
}

// Adopts every in-doubt 2PC transaction a log replay surfaced: builds a
// kPrepared context carrying the rebuilt write set and seals a prepared
// commit slot for it (no OnPrepare hook — the log already holds the
// prepare record), so the transaction survives further restarts and its
// row claims stay protected from claim-stealing until a decision lands.
Status AdoptInDoubt(const recovery::LogRecoveryReport& report,
                    storage::Catalog& catalog,
                    txn::TxnManager& txn_manager) {
  for (const auto& in_doubt : report.in_doubt) {
    auto ctx = std::make_shared<txn::TxnContext>();
    ctx->tid = in_doubt.tid;
    ctx->gtid = in_doubt.gtid;
    ctx->state = txn::TxnState::kPrepared;
    ctx->writes.reserve(in_doubt.writes.size());
    for (const auto& write : in_doubt.writes) {
      auto table = catalog.GetTableById(write.table_id);
      if (!table.ok()) return table.status();
      ctx->writes.push_back(txn::Write{*table, write.loc, write.invalidate});
    }
    HYRISE_NV_LOG(kInfo) << "adopting in-doubt transaction gtid="
                         << in_doubt.gtid << " tid=" << in_doubt.tid
                         << " (" << in_doubt.writes.size()
                         << " writes) from the log";
    HYRISE_NV_RETURN_NOT_OK(txn_manager.SealAdoptedPrepared(std::move(ctx)));
  }
  return Status::OK();
}

}  // namespace

nvm::PmemRegionOptions Database::MakeRegionOptions() const {
  nvm::PmemRegionOptions region_options;
  if (options_.mode == DurabilityMode::kNvm) {
    region_options.latency = options_.nvm_latency;
    region_options.tracking = options_.tracking;
    if (!options_.data_dir.empty()) {
      region_options.file_path = options_.NvmImagePath();
    }
  } else {
    // WAL / no-durability engines keep table structures in DRAM: an
    // anonymous region with zero persist latency and no shadow. The
    // persist calls still execute (same code path) but cost only the
    // accounting, which models DRAM honestly.
    region_options.latency = nvm::NvmLatencyModel::DramSpeed();
    region_options.tracking = nvm::TrackingMode::kNone;
  }
  return region_options;
}

Result<std::unique_ptr<Database>> Database::CreateFresh(
    const DatabaseOptions& options, bool open_existing_log) {
  auto db = std::unique_ptr<Database>(new Database(options));
  auto heap_result =
      alloc::PHeap::Create(options.region_size, db->MakeRegionOptions());
  if (!heap_result.ok()) return heap_result.status();
  db->heap_ = std::move(heap_result).ValueUnsafe();

  auto catalog_result = storage::Catalog::Format(*db->heap_);
  if (!catalog_result.ok()) return catalog_result.status();
  db->catalog_ = std::move(catalog_result).ValueUnsafe();

  auto txn_result = txn::TxnManager::Format(*db->heap_);
  if (!txn_result.ok()) return txn_result.status();
  db->txn_manager_ = std::move(txn_result).ValueUnsafe();

  if (options.uses_wal()) {
    auto log_result =
        open_existing_log
            ? wal::LogManager::OpenExisting(options.MakeLogOptions())
            : wal::LogManager::Create(options.MakeLogOptions());
    if (!log_result.ok()) return log_result.status();
    db->log_manager_ = std::move(log_result).ValueUnsafe();
    db->txn_manager_->set_commit_hook(db->log_manager_.get());
  }
  return db;
}

Result<std::unique_ptr<Database>> Database::Create(
    const DatabaseOptions& options) {
  if (options.uses_wal() && options.data_dir.empty()) {
    return Status::InvalidArgument("WAL modes need a data_dir");
  }
  auto db_result = CreateFresh(options, /*open_existing_log=*/false);
  if (!db_result.ok()) return db_result;
  (*db_result)->recovery_.mode = options.mode;
  (*db_result)->recovery_.recovered = false;
  (*db_result)->StartObservability(/*recovered=*/false);
  return db_result;
}

Result<std::unique_ptr<Database>> Database::Open(
    const DatabaseOptions& options) {
  obs::SpanTracer tracer("open");
  if (options.mode == DurabilityMode::kNvm) {
    if (options.data_dir.empty()) {
      return Status::InvalidArgument(
          "opening an NVM database needs a data_dir");
    }
    auto db = std::unique_ptr<Database>(new Database(options));
    recovery::NvmRestartOptions restart_options;
    restart_options.region = db->MakeRegionOptions();
    restart_options.level = options.open_mode == OpenMode::kNormal
                                ? recovery::ValidationLevel::kFastHeaderOnly
                                : recovery::ValidationLevel::kDeep;
    restart_options.salvage =
        options.open_mode == OpenMode::kSalvageReadOnly;
    auto restart_result = recovery::InstantRestart(restart_options);
    if (!restart_result.ok()) {
      // A corrupt image is still recoverable when a WAL covering the
      // same data sits next to it: rebuild rather than fail.
      if (restart_result.status().IsCorruption() &&
          nvm::FileExists(options.LogPath())) {
        HYRISE_NV_LOG(kWarn)
            << "NVM image is corrupt ("
            << restart_result.status().ToString()
            << "); falling back to log-based recovery";
        return OpenViaLogFallback(options);
      }
      return restart_result.status();
    }
    db->heap_ = std::move(restart_result->heap);
    db->catalog_ = std::move(restart_result->catalog);
    db->txn_manager_ = std::move(restart_result->txn_manager);
    db->recovery_.mode = options.mode;
    db->recovery_.recovered = true;
    db->recovery_.nvm = restart_result->report;
    tracer.Attach(db->recovery_.nvm.trace);
    if (restart_result->salvage_read_only) {
      db->read_only_ = true;
      db->read_only_reason_ =
          "opened in salvage mode; deep verification found corruption";
      db->quarantined_ = restart_result->quarantined_tables;
      db->recovery_.read_only = true;
      db->recovery_.quarantined_tables = db->quarantined_;
    }
    tracer.Begin("attach_index_sets");
    HYRISE_NV_RETURN_NOT_OK(db->AttachAllIndexSets());
    tracer.End();
    if (!db->read_only_) {
      // Re-adopt prepared-but-undecided 2PC transactions straight from
      // their kPrepared commit slots (instant restart keeps them sealed).
      HYRISE_NV_RETURN_NOT_OK(
          db->txn_manager_->AdoptPreparedFromTable(*db->catalog_));
    }
    db->recovery_.trace = tracer.Finish();
    db->recovery_.total_seconds = db->recovery_.trace.seconds;
    NoteOpened();
    db->StartObservability(/*recovered=*/true);
    return db;
  }

  if (options.uses_wal()) {
    auto db_result = CreateFresh(options, /*open_existing_log=*/true);
    if (!db_result.ok()) return db_result;
    auto& db = *db_result;

    bool serve_on_demand =
        options.log_recovery == LogRecoveryPolicy::kServeOnDemand;
    if (serve_on_demand) {
      // In-doubt 2PC transactions need the eager replay machinery (row
      // claims + write-set reconstruction, DESIGN.md §16); the on-demand
      // analysis pass cannot stage them. Rare by construction — prepares
      // exist only in the window between prepare and decide — so the
      // fallback costs nothing in the common case.
      auto in_doubt_result =
          recovery::LogHasInDoubt(options.MakeLogOptions());
      if (!in_doubt_result.ok()) return in_doubt_result.status();
      if (*in_doubt_result) {
        HYRISE_NV_LOG(kWarn)
            << "log holds in-doubt 2PC transactions; falling back from "
               "serve-on-demand to eager replay";
        serve_on_demand = false;
      }
    }
    if (serve_on_demand) {
      // Serve-during-recovery: analysis stages pending rows instead of
      // replaying them, the engine opens degraded in O(log-scan) time,
      // and a background drain restores the rest while serving.
      auto index_result = recovery::AnalyzeLog(
          *db->heap_, *db->catalog_, *db->txn_manager_,
          options.MakeLogOptions());
      if (!index_result.ok()) return index_result.status();
      db->log_manager_->ResetDictWatermarks(*db->catalog_);
      db->recovery_.mode = options.mode;
      db->recovery_.recovered = true;
      db->recovery_.log = index_result->report;
      tracer.Attach(db->recovery_.log.trace);
      tracer.Begin("attach_index_sets");
      HYRISE_NV_RETURN_NOT_OK(db->AttachAllIndexSets());
      tracer.End();
      db->deferred_indexes_ = std::move(index_result->indexed_columns);
      if (index_result->total_pending_rows == 0) {
        // Nothing to drain: build the indexes inline and open ready.
        HYRISE_NV_RETURN_NOT_OK(db->BuildDeferredIndexes());
      } else {
        recovery::RecoveryDriverOptions driver_options;
        driver_options.drain_chunk_rows = options.drain_chunk_rows;
        driver_options.drain_pause_us = options.drain_pause_us;
        db->recovery_driver_ = std::make_unique<recovery::RecoveryDriver>(
            *db->heap_, std::move(*index_result), driver_options);
      }
      db->recovery_.trace = tracer.Finish();
      db->recovery_.total_seconds = db->recovery_.trace.seconds;
      NoteOpened();
      db->StartObservability(/*recovered=*/true);
      if (db->recovery_driver_ != nullptr) {
        Database* raw = db.get();
        db->recovery_driver_->StartDrain(
            [raw] { return raw->BuildDeferredIndexes(); });
      }
      return db_result;
    }

    auto report_result = recovery::RecoverFromLog(
        *db->heap_, *db->catalog_, *db->txn_manager_,
        options.MakeLogOptions());
    if (!report_result.ok()) return report_result.status();
    db->log_manager_->ResetDictWatermarks(*db->catalog_);
    db->recovery_.mode = options.mode;
    db->recovery_.recovered = true;
    db->recovery_.log = *report_result;
    tracer.Attach(db->recovery_.log.trace);
    tracer.Begin("attach_index_sets");
    HYRISE_NV_RETURN_NOT_OK(db->AttachAllIndexSets());
    tracer.End();
    HYRISE_NV_RETURN_NOT_OK(AdoptInDoubt(
        db->recovery_.log, *db->catalog_, *db->txn_manager_));
    db->recovery_.trace = tracer.Finish();
    db->recovery_.total_seconds = db->recovery_.trace.seconds;
    NoteOpened();
    db->StartObservability(/*recovered=*/true);
    return db_result;
  }

  return Status::InvalidArgument("mode has nothing to open");
}

Result<std::unique_ptr<Database>> Database::OpenViaLogFallback(
    const DatabaseOptions& options) {
  // Rebuild into a scratch file; the corrupt image stays untouched until
  // the rebuilt one is complete and clean. The rename is the commit
  // point — a crash mid-rebuild leaves the old image (and the log) as
  // they were, so the fallback simply runs again.
  const std::string rebuild_path = options.NvmImagePath() + ".rebuild";
  nvm::RemoveFileIfExists(rebuild_path);
  obs::SpanTracer tracer("open");
  recovery::LogRecoveryReport log_report;
  tracer.Begin("rebuild_image");
  {
    nvm::PmemRegionOptions region_options;
    region_options.latency = options.nvm_latency;
    region_options.tracking = nvm::TrackingMode::kNone;
    region_options.file_path = rebuild_path;
    auto heap_result =
        alloc::PHeap::Create(options.region_size, region_options);
    if (!heap_result.ok()) return heap_result.status();
    auto heap = std::move(heap_result).ValueUnsafe();
    auto catalog_result = storage::Catalog::Format(*heap);
    if (!catalog_result.ok()) return catalog_result.status();
    auto txn_result = txn::TxnManager::Format(*heap);
    if (!txn_result.ok()) return txn_result.status();
    auto report_result = recovery::RecoverFromLog(
        *heap, **catalog_result, **txn_result, options.MakeLogOptions());
    if (!report_result.ok()) return report_result.status();
    log_report = *report_result;
    tracer.Attach(log_report.trace);
    // Seal prepared slots for in-doubt 2PC transactions into the rebuilt
    // image: the log is retired below, so the image alone must carry the
    // prepared state for the re-open to adopt.
    HYRISE_NV_RETURN_NOT_OK(
        AdoptInDoubt(log_report, **catalog_result, **txn_result));
    recovery::SealForCleanShutdown(*heap);
    HYRISE_NV_RETURN_NOT_OK(heap->CloseClean());
  }
  tracer.End();
  tracer.Begin("install_image");
  std::error_code ec;
  std::filesystem::rename(rebuild_path, options.NvmImagePath(), ec);
  if (ec) {
    return Status::IOError("installing rebuilt NVM image: " + ec.message());
  }
  // Retire the log + checkpoint: their history now lives in the image,
  // and replaying it again on top of newer state would corrupt data.
  // (Also breaks the fallback recursion: no log file, no second try.)
  std::filesystem::rename(options.LogPath(),
                          options.LogPath() + ".applied", ec);
  if (ec) {
    return Status::IOError("retiring applied log: " + ec.message());
  }
  if (nvm::FileExists(options.CheckpointPath())) {
    std::filesystem::rename(options.CheckpointPath(),
                            options.CheckpointPath() + ".applied", ec);
    if (ec) {
      return Status::IOError("retiring applied checkpoint: " + ec.message());
    }
  }
  tracer.End();
  auto db_result = Open(options);
  if (!db_result.ok()) return db_result;
  // The re-open produced its own "open" trace; graft it in as "reopen"
  // under the fallback's trace so the final tree covers everything.
  obs::SpanNode reopen = std::move((*db_result)->recovery_.trace);
  reopen.name = "reopen";
  tracer.Attach(std::move(reopen));
  (*db_result)->recovery_.fell_back_to_log = true;
  (*db_result)->recovery_.log = log_report;
  (*db_result)->recovery_.trace = tracer.Finish();
  (*db_result)->recovery_.total_seconds =
      (*db_result)->recovery_.trace.seconds;
  return db_result;
}

Result<recovery::VerifyReport> Database::VerifyImage(
    const DatabaseOptions& options) {
  nvm::PmemRegionOptions region_options;
  region_options.tracking = nvm::TrackingMode::kNone;
  region_options.file_path = options.NvmImagePath();
  auto region_result = nvm::PmemRegion::Open(region_options);
  if (!region_result.ok()) return region_result.status();
  return recovery::DeepVerify(**region_result);
}

Result<std::unique_ptr<Database>> Database::CrashAndRecover(
    std::unique_ptr<Database> db) {
  const DatabaseOptions options = db->options_;
  // Stop the historian and timeline before the simulated power failure:
  // their threads flush/decode the flight recorder via the process-wide
  // Current() pointer, which re-attaching the heap below is about to
  // swap out.
  db->timeline_.reset();
  db->history_.reset();

  if (options.mode == DurabilityMode::kNvm) {
    HYRISE_NV_RETURN_NOT_OK(db->heap_->region().SimulateCrash());
    // The timer starts after the simulated power failure: restoring the
    // shadow image is the *crash*, not the recovery.
    obs::SpanTracer tracer("open");
    auto recovered = std::unique_ptr<Database>(new Database(options));
    auto restart_result =
        recovery::InstantRestartFromHeap(std::move(db->heap_));
    if (!restart_result.ok()) return restart_result.status();
    db.reset();
    recovered->heap_ = std::move(restart_result->heap);
    recovered->catalog_ = std::move(restart_result->catalog);
    recovered->txn_manager_ = std::move(restart_result->txn_manager);
    recovered->recovery_.mode = options.mode;
    recovered->recovery_.recovered = true;
    recovered->recovery_.nvm = restart_result->report;
    tracer.Attach(recovered->recovery_.nvm.trace);
    tracer.Begin("attach_index_sets");
    HYRISE_NV_RETURN_NOT_OK(recovered->AttachAllIndexSets());
    tracer.End();
    HYRISE_NV_RETURN_NOT_OK(
        recovered->txn_manager_->AdoptPreparedFromTable(
            *recovered->catalog_));
    recovered->recovery_.trace = tracer.Finish();
    recovered->recovery_.total_seconds = recovered->recovery_.trace.seconds;
    NoteOpened();
    recovered->StartObservability(/*recovered=*/true);
    return recovered;
  }

  if (options.uses_wal()) {
    // Power failure: the unsynced log tail is gone, DRAM is gone.
    HYRISE_NV_RETURN_NOT_OK(db->log_manager_->device().SimulateCrash());
    db.reset();
    return Open(options);
  }

  return Status::NotSupported("kNone mode loses everything in a crash");
}

Status Database::AttachAllIndexSets() {
  index_sets_.clear();
  for (const auto& table : catalog_->tables()) {
    auto set = std::make_unique<index::IndexSet>(table.get());
    HYRISE_NV_RETURN_NOT_OK(set->Attach());
    index_sets_[table.get()] = std::move(set);
  }
  return Status::OK();
}

index::IndexSet* Database::indexes(storage::Table* table) const {
  auto it = index_sets_.find(table);
  return it == index_sets_.end() ? nullptr : it->second.get();
}

Status Database::EnsureWritable() const {
  if (!read_only_) return Status::OK();
  return Status::IOError("database is read-only: " + read_only_reason_);
}

Status Database::EnsureNotDegraded(const char* what) const {
  if (recovery_driver_ == nullptr || !recovery_driver_->serving_degraded()) {
    return Status::OK();
  }
  return Status::Aborted(std::string(what) +
                         " unavailable while serving degraded: recovery "
                         "drain in progress");
}

Status Database::BuildDeferredIndexes() {
  for (const auto& indexed : deferred_indexes_) {
    auto table_result = catalog_->GetTable(indexed.table);
    if (!table_result.ok()) return table_result.status();
    storage::Table* table = *table_result;
    index::IndexSet* set = indexes(table);
    HYRISE_NV_CHECK(set != nullptr, "table without index set");
    // Same lock as Insert: writers admitted during degraded serving must
    // not observe a half-built index, and rows they append either land
    // before the build (the build sees them) or after (OnInsert sees the
    // bound index).
    std::lock_guard<std::mutex> write_guard(table->write_mutex());
    if (set->HasIndex(indexed.column)) continue;
    HYRISE_NV_RETURN_NOT_OK(set->CreateIndexOfKind(
        indexed.column, static_cast<storage::PIndexKind>(indexed.kind)));
    if (table->main_row_count() > 0) {
      HYRISE_NV_RETURN_NOT_OK(
          storage::BuildMainGroupKey(*table, indexed.column));
      HYRISE_NV_RETURN_NOT_OK(set->Attach());
    }
  }
  deferred_indexes_.clear();
  return Status::OK();
}

Status Database::WaitUntilRecovered(uint64_t timeout_ms) {
  if (recovery_driver_ == nullptr) return Status::OK();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (recovery_driver_->serving_degraded()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::Aborted("timed out waiting for the recovery drain");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Status::OK();
}

void Database::NoteLogFailure(const Status& status) {
  if (status.ok() || status.code() != StatusCode::kIOError) return;
  if (log_manager_ == nullptr || !log_manager_->writer().degraded()) return;
  if (read_only_) return;
  read_only_ = true;
  read_only_reason_ =
      "WAL device failed past its retry budget: " + status.message();
  HYRISE_NV_LOG(kError) << "database is now read-only: "
                        << read_only_reason_;
}

Result<storage::Table*> Database::GetTable(const std::string& name) const {
  for (const auto& quarantined : quarantined_) {
    if (quarantined == name) {
      return Status::Corruption("table '" + name +
                                "' is quarantined: it failed deep "
                                "verification at open");
    }
  }
  return catalog_->GetTable(name);
}

Status Database::Commit(txn::Transaction& tx) {
  Status status = txn_manager_->Commit(tx);
  NoteLogFailure(status);
  return status;
}

Status Database::Prepare(txn::Transaction& tx, uint64_t gtid) {
  HYRISE_NV_RETURN_NOT_OK(EnsureWritable());
  Status status = txn_manager_->Prepare(tx, gtid);
  NoteLogFailure(status);
  return status;
}

Status Database::Decide(uint64_t gtid, bool commit) {
  HYRISE_NV_RETURN_NOT_OK(EnsureWritable());
  Status status = txn_manager_->Decide(gtid, commit);
  NoteLogFailure(status);
  return status;
}

Result<storage::Table*> Database::CreateTable(const std::string& name,
                                              const storage::Schema& schema) {
  HYRISE_NV_RETURN_NOT_OK(EnsureWritable());
  auto table_result = catalog_->CreateTable(name, schema);
  if (!table_result.ok()) return table_result;
  auto set = std::make_unique<index::IndexSet>(*table_result);
  HYRISE_NV_RETURN_NOT_OK(set->Attach());
  index_sets_[*table_result] = std::move(set);
  if (log_manager_ != nullptr) {
    Status log_status = log_manager_->LogCreateTable(**table_result);
    if (!log_status.ok()) {
      NoteLogFailure(log_status);
      return log_status;
    }
  }
  return table_result;
}

Status Database::CreateIndex(const std::string& table_name, size_t column,
                             storage::PIndexKind kind) {
  // Index builds key every existing row; placeholders can't be keyed,
  // and the build would race the drain's deferred builds.
  HYRISE_NV_RETURN_NOT_OK(EnsureNotDegraded("create-index"));
  HYRISE_NV_RETURN_NOT_OK(EnsureWritable());
  auto table_result = catalog_->GetTable(table_name);
  if (!table_result.ok()) return table_result.status();
  index::IndexSet* set = indexes(*table_result);
  HYRISE_NV_CHECK(set != nullptr, "table without index set");
  HYRISE_NV_RETURN_NOT_OK(set->CreateIndexOfKind(column, kind));
  // Build the main side too if a main partition already exists.
  if ((*table_result)->main_row_count() > 0) {
    HYRISE_NV_RETURN_NOT_OK(
        storage::BuildMainGroupKey(**table_result, column));
    HYRISE_NV_RETURN_NOT_OK(set->Attach());
  }
  if (log_manager_ != nullptr) {
    Status log_status = log_manager_->LogCreateIndex(
        (*table_result)->id(), static_cast<uint32_t>(column),
        static_cast<uint32_t>(kind));
    if (!log_status.ok()) {
      NoteLogFailure(log_status);
      return log_status;
    }
  }
  return Status::OK();
}

Result<storage::RowLocation> Database::Insert(
    txn::Transaction& tx, storage::Table* table,
    const std::vector<storage::Value>& row) {
  HYRISE_NV_RETURN_NOT_OK(EnsureWritable());
  if (!tx.active()) {
    return Status::InvalidArgument("transaction not active");
  }
  // One writer per table at a time: the delta append, index insert, and
  // dict-encoded WAL logging all touch single-writer structures. Writers
  // on different tables proceed in parallel.
  std::lock_guard<std::mutex> write_guard(table->write_mutex());
  auto loc_result = table->AppendRow(row, tx.tid());
  if (!loc_result.ok()) return loc_result;
  tx.RecordInsert(table, *loc_result);
  index::IndexSet* set = indexes(table);
  if (set != nullptr) {
    HYRISE_NV_RETURN_NOT_OK(set->OnInsert(row, loc_result->row));
  }
  if (log_manager_ != nullptr) {
    Status log_status =
        log_manager_->LogInsert(*table, tx.tid(), row, *loc_result);
    if (!log_status.ok()) {
      NoteLogFailure(log_status);
      return log_status;
    }
  }
  return loc_result;
}

Status Database::Delete(txn::Transaction& tx, storage::Table* table,
                        storage::RowLocation loc) {
  HYRISE_NV_RETURN_NOT_OK(EnsureWritable());
  if (!tx.active()) {
    return Status::InvalidArgument("transaction not active");
  }
  // Claims mutate the MVCC vector, which a concurrent insert may be
  // growing (copying) under this mutex.
  std::lock_guard<std::mutex> write_guard(table->write_mutex());
  storage::MvccEntry* entry = table->mvcc(loc);
  if (!storage::IsVisible(*entry, tx.snapshot(), tx.tid())) {
    return Status::NotFound("row not visible to this transaction");
  }
  auto active = [this](storage::Tid t) { return txn_manager_->IsActive(t); };
  HYRISE_NV_RETURN_NOT_OK(storage::ClaimForInvalidate(
      heap_->region(), entry, tx.tid(), active));
  if (entry->begin == storage::kCidInfinity) {
    // Deleting our own uncommitted insert.
    storage::MarkSelfDeleted(heap_->region(), entry);
  }
  tx.RecordInvalidate(table, loc);
  if (log_manager_ != nullptr) {
    Status log_status = log_manager_->LogDelete(*table, tx.tid(), loc);
    if (!log_status.ok()) {
      NoteLogFailure(log_status);
      return log_status;
    }
  }
  return Status::OK();
}

Result<storage::RowLocation> Database::Update(
    txn::Transaction& tx, storage::Table* table, storage::RowLocation loc,
    const std::vector<storage::Value>& row) {
  HYRISE_NV_RETURN_NOT_OK(Delete(tx, table, loc));
  return Insert(tx, table, row);
}

Status Database::InsertAutoCommit(storage::Table* table,
                                  const std::vector<storage::Value>& row) {
  auto tx_result = Begin();
  if (!tx_result.ok()) return tx_result.status();
  auto insert_result = Insert(*tx_result, table, row);
  if (!insert_result.ok()) {
    (void)Abort(*tx_result);
    return insert_result.status();
  }
  return Commit(*tx_result);
}

Result<std::vector<storage::RowLocation>> Database::ScanEqual(
    storage::Table* table, size_t column, const storage::Value& value,
    storage::Cid snapshot, storage::Tid tid) const {
  // Pins the reader epoch: no buffer this scan dereferences (dictionary,
  // index entries, attribute and MVCC vectors) is freed under it.
  alloc::ReaderEpochs::Guard epoch_guard(heap_->allocator().reader_epochs());
  const bool degraded =
      recovery_driver_ != nullptr && recovery_driver_->serving_degraded();
  std::unique_lock<std::mutex> degraded_guard;
  if (degraded) {
    // Restore the rows this key touches first. The scan then runs
    // index-free: no index exists while degraded (all builds are
    // deferred to the drain), and consulting the set here would race the
    // finalize-time build. Holding the write mutex for the scan itself
    // serializes the full-delta cell walk with the drain's chunked
    // restores (the drain takes the same mutex per chunk, so degraded
    // reads pause it briefly instead of racing it).
    HYRISE_NV_RETURN_NOT_OK(
        recovery_driver_->PrepareScanEqual(table, column, value));
    degraded_guard = std::unique_lock<std::mutex>(table->write_mutex());
  }
  std::vector<storage::RowLocation> rows;
  index::IndexSet* set = degraded ? nullptr : indexes(table);
  if (set != nullptr && set->HasIndex(column)) {
    HYRISE_NV_RETURN_NOT_OK(set->ForEachEqualCandidate(
        column, value, [&](storage::RowLocation loc) {
          if (storage::IsVisible(*table->mvcc(loc), snapshot, tid)) {
            rows.push_back(loc);
          }
        }));
    return rows;
  }

  // Index-free scan: resolve the value to per-partition ids once, then
  // compare encoded ids only.
  const auto& main_col = table->main().column(column);
  const storage::ValueId main_id = main_col.dictionary().Find(value);
  if (main_id != storage::kInvalidValueId) {
    const uint64_t main_rows = table->main_row_count();
    for (uint64_t r = 0; r < main_rows; ++r) {
      if (main_col.AttrAt(r) == main_id &&
          storage::IsVisible(*table->main().mvcc(r), snapshot, tid)) {
        rows.push_back({true, r});
      }
    }
  }
  const auto& delta_col = table->delta().column(column);
  const storage::ValueId delta_id = delta_col.dictionary().Lookup(value);
  if (delta_id != storage::kInvalidValueId) {
    const uint64_t delta_rows = table->delta_row_count();
    for (uint64_t r = 0; r < delta_rows; ++r) {
      if (delta_col.AttrAt(r) == delta_id &&
          storage::IsVisible(*table->delta().mvcc(r), snapshot, tid)) {
        rows.push_back({false, r});
      }
    }
  }
  return rows;
}

Result<std::vector<storage::RowLocation>> Database::ScanRange(
    storage::Table* table, size_t column, const storage::Value& lo,
    const storage::Value& hi, storage::Cid snapshot,
    storage::Tid tid) const {
  alloc::ReaderEpochs::Guard epoch_guard(heap_->allocator().reader_epochs());
  if (recovery_driver_ != nullptr && recovery_driver_->serving_degraded()) {
    HYRISE_NV_RETURN_NOT_OK(
        recovery_driver_->PrepareScanRange(table, column, lo, hi));
    // Index-free for the same reason as ScanEqual: the deferred index
    // build must not be observed half-done. The scan holds the write
    // mutex to serialize with the drain's chunked cell restores.
    std::lock_guard<std::mutex> guard(table->write_mutex());
    return core::ScanRange(table, column, lo, hi, snapshot, tid, nullptr);
  }
  return core::ScanRange(table, column, lo, hi, snapshot, tid,
                         indexes(table));
}

Result<storage::MergeStats> Database::Merge(const std::string& table_name) {
  HYRISE_NV_RETURN_NOT_OK(EnsureNotDegraded("merge"));
  HYRISE_NV_RETURN_NOT_OK(EnsureWritable());
  if (txn_manager_->PreparedCount() > 0) {
    // A merge would relocate rows the prepared write sets point at, and
    // the checkpoint below would move the replay base past the prepare
    // records. Retry once the coordinator has decided.
    return Status::Aborted(
        "merge refused: prepared 2PC transactions are in doubt");
  }
  auto table_result = catalog_->GetTable(table_name);
  if (!table_result.ok()) return table_result.status();
  obs::BlackboxWriter* bb = heap_->blackbox();
  if (bb != nullptr) {
    bb->Record(obs::BlackboxEventType::kMergeStart,
               (*table_result)->id(), (*table_result)->delta_row_count());
  }
  const uint64_t merge_start_ticks = obs::FastClock::NowTicks();
  auto stats_result =
      storage::MergeTable(**table_result, txn_manager_->watermark());
  if (!stats_result.ok()) return stats_result;
  if (bb != nullptr) {
    bb->Record(obs::BlackboxEventType::kMergeEnd, (*table_result)->id(),
               stats_result->rows_after, stats_result->dropped_rows,
               obs::FastClock::TicksToNanos(static_cast<int64_t>(
                   obs::FastClock::NowTicks() - merge_start_ticks)));
  }
  // Rebind index handles to the new generation.
  index::IndexSet* set = indexes(*table_result);
  if (set != nullptr) {
    HYRISE_NV_RETURN_NOT_OK(set->Attach());
  }
  // WAL modes must checkpoint now: logged row positions reference the
  // pre-merge layout, so the replay base has to move past the merge.
  if (log_manager_ != nullptr) {
    HYRISE_NV_RETURN_NOT_OK(log_manager_->WriteCheckpointNow(
        *catalog_, txn_manager_->commit_table()));
  }
  return stats_result;
}

Status Database::Checkpoint() {
  if (log_manager_ == nullptr) return Status::OK();
  // A checkpoint while rows are still placeholders would snapshot
  // kInvalidValueId cells as real data.
  HYRISE_NV_RETURN_NOT_OK(EnsureNotDegraded("checkpoint"));
  HYRISE_NV_RETURN_NOT_OK(EnsureWritable());
  if (txn_manager_->PreparedCount() > 0) {
    // A checkpoint would move the replay base past the kPrepare records
    // that keep in-doubt transactions recoverable. Retry after decide.
    return Status::Aborted(
        "checkpoint refused: prepared 2PC transactions are in doubt");
  }
  const uint64_t start_ticks = obs::FastClock::NowTicks();
  if (obs::BlackboxWriter* bb = heap_->blackbox()) {
    bb->Record(obs::BlackboxEventType::kCheckpointStart);
  }
  Status status = log_manager_->WriteCheckpointNow(
      *catalog_, txn_manager_->commit_table());
  if (status.ok()) {
    if (obs::BlackboxWriter* bb = heap_->blackbox()) {
      bb->Record(obs::BlackboxEventType::kCheckpoint,
                 obs::FastClock::TicksToNanos(static_cast<int64_t>(
                     obs::FastClock::NowTicks() - start_ticks)));
    }
  }
  return status;
}

Status Database::Close() {
  // Stop the timeline and historian first: they must not flush or
  // decode the recorder after the close event seals the session (the
  // timeline hook also dereferences heap_ state that Close tears down).
  timeline_.reset();
  history_.reset();
  // Stop the drain before touching shared state below. A close while
  // still degraded is fine: restores are never re-logged, so the next
  // open simply re-runs analysis from the same WAL.
  if (recovery_driver_ != nullptr) recovery_driver_->StopDrain();
  if (read_only_) {
    // Salvage / degraded: nothing here may touch the image or the log.
    // In particular the image must NOT be marked clean — its seals were
    // never refreshed and parts of it are known-corrupt.
    return Status::OK();
  }
  // Transactions still open at shutdown (a serving session whose client
  // never committed, a leaked handle) are aborted, not leaked: their
  // claims are released and their inserts tombstoned, so the sealed
  // image contains no in-flight state and the next open sees none of
  // their effects.
  txn_manager_->AbortAllActive();
  if (log_manager_ != nullptr) {
    HYRISE_NV_RETURN_NOT_OK(log_manager_->SyncNow());
  }
  // Buffers replaced under readers are still waiting for their grace
  // period; with the readers gone they are freed before the image seals.
  heap_->allocator().ReclaimDeferred();
  if (options_.mode == DurabilityMode::kNvm) {
    // Refresh the close-time checksums so the next open can deep-verify
    // mutable structures too (they are only authoritative after a clean
    // shutdown; MarkDirty at the next open invalidates them).
    recovery::SealForCleanShutdown(*heap_);
  }
  return heap_->CloseClean();
}

void Database::StartObservability(bool recovered) {
  txn_manager_->SetTxnSampling(options_.txn_sample_every);
  if (options_.install_crash_handler) {
    obs::InstallCrashHandler();
  }
  if (obs::BlackboxWriter* bb = heap_->blackbox()) {
    bb->Record(obs::BlackboxEventType::kOpen,
               static_cast<uint64_t>(options_.mode), recovered ? 1 : 0);
  }
  if (options_.enable_history_sampler) {
    history_ = std::make_unique<obs::HistorySampler>(
        options_.history_interval_ms, options_.history_capacity);
    history_->Start();
  }
  if (options_.enable_timeline) {
    obs::TimelineConfig config = obs::TimelineConfig::Default();
    config.interval_ms = options_.timeline_interval_ms;
    config.capacity = options_.timeline_capacity;
    timeline_ = std::make_unique<obs::TimelineRecorder>(std::move(config));
    // Gauges like RSS and NVM-region utilization are not maintained by
    // any hot path; sync them right before each sample so the timeline
    // sees live values.
    timeline_->SetPreSampleHook([this] { SyncPassiveMetrics(); });
    timeline_->Start();
  }
}

std::string Database::HistoryJson() const {
  if (history_ == nullptr) {
    return "{\"interval_ms\":0,\"capacity\":0,\"samples\":[]}";
  }
  return history_->ToJson();
}

std::string Database::TimelineJson() const {
  if (timeline_ == nullptr) {
    return "{\"interval_ms\":0,\"capacity\":0,\"samples\":[]}";
  }
  return timeline_->ToJson();
}

std::string Database::TimelineCsv() const {
  if (timeline_ == nullptr) return "";
  return timeline_->ToCsv();
}

namespace {

/// Resident set size from /proc/self/statm (0 where unavailable).
int64_t ReadRssBytes() {
#if defined(__linux__)
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long vm_pages = 0;
  long long rss_pages = 0;
  int fields = std::fscanf(f, "%lld %lld", &vm_pages, &rss_pages);
  std::fclose(f);
  if (fields != 2) return 0;
  return static_cast<int64_t>(rss_pages) * sysconf(_SC_PAGESIZE);
#else
  return 0;
#endif
}

}  // namespace

void Database::SyncPassiveMetrics() {
  auto& registry = obs::MetricsRegistry::Instance();
  // Mirror passively-maintained totals into the registry so one snapshot
  // holds everything. These sources already count in their own hot paths
  // (NvmStats atomics, WAL writer fields); re-counting them live would
  // double the bookkeeping for no benefit.
  const nvm::NvmStats& stats = heap_->region().stats();
  registry.GetCounter("nvm.persist.count")
      .Store(stats.persist_calls.load(std::memory_order_relaxed));
  registry.GetCounter("nvm.fence.count")
      .Store(stats.fences.load(std::memory_order_relaxed));
  registry.GetCounter("nvm.flush.lines")
      .Store(stats.flush_lines.load(std::memory_order_relaxed));
  registry.GetCounter("nvm.flush.bytes")
      .Store(stats.flushed_bytes.load(std::memory_order_relaxed));
  registry.GetGauge("alloc.heap_used.bytes")
      .Set(static_cast<int64_t>(heap_->allocator().HeapUsedBytes()));
  registry.GetGauge("process.rss_bytes").Set(ReadRssBytes());
  // Region utilization includes the metadata prefix (header, intent
  // table, flight recorder) ahead of the allocatable heap, so
  // used/capacity reflects how full the mapped image actually is.
  registry.GetGauge("nvm.region.used_bytes")
      .Set(static_cast<int64_t>(alloc::PAllocator::HeapBegin() +
                                heap_->allocator().HeapUsedBytes()));
  registry.GetGauge("nvm.region.capacity_bytes")
      .Set(static_cast<int64_t>(heap_->region().size()));
  registry.GetGauge("db.read_only").Set(read_only_ ? 1 : 0);
  registry.GetGauge("db.serving_degraded")
      .Set(serving_state() == ServingState::kServingDegraded ? 1 : 0);
  if (recovery_driver_ != nullptr) {
    const recovery::RecoveryProgress progress = recovery_progress();
    registry.GetGauge("recovery.pending.rows")
        .Set(static_cast<int64_t>(progress.total_rows -
                                  progress.restored_rows));
    registry.GetGauge("recovery.progress.percent")
        .Set(static_cast<int64_t>(progress.percent()));
  }
  if (log_manager_ != nullptr) {
    const wal::LogWriter& writer = log_manager_->writer();
    registry.GetCounter("wal.io.retries").Store(writer.io_retries());
    registry.GetCounter("wal.commits.total").Store(writer.total_commits());
    registry.GetCounter("wal.commits.synced").Store(writer.synced_commits());
    registry.GetCounter("wal.bytes.logged")
        .Store(log_manager_->bytes_logged());
  }
}

obs::MetricsSnapshot Database::MetricsSnapshot() {
  SyncPassiveMetrics();
  return obs::MetricsRegistry::Instance().Snapshot();
}

}  // namespace hyrise_nv::core
