#include "recovery/nvm_recovery.h"

#include <unordered_set>

namespace hyrise_nv::recovery {

namespace {

Result<NvmRestartResult> FinishRestart(NvmRestartResult result,
                                       obs::SpanTracer& tracer) {
  // Phase 2: fixups — allocator intent recovery already ran inside
  // PHeap::Open; complete in-flight commits here. Needs the catalog, so
  // bind it first (cheap: descriptor checks only, O(columns)).
  tracer.Begin("fixup");
  tracer.Begin("attach_catalog");
  auto catalog_result = storage::Catalog::Attach(*result.heap);
  if (!catalog_result.ok()) return catalog_result.status();
  result.catalog = std::move(catalog_result).ValueUnsafe();
  tracer.End();

  tracer.Begin("attach_txn_manager");
  auto txn_result = txn::TxnManager::Attach(*result.heap);
  if (!txn_result.ok()) return txn_result.status();
  result.txn_manager = std::move(txn_result).ValueUnsafe();
  tracer.End();

  tracer.Begin("rollforward_commits");
  HYRISE_NV_RETURN_NOT_OK(
      result.txn_manager->RecoverInFlight(*result.catalog));
  tracer.End();
  result.report.fixup_seconds = tracer.End();

  // Phase 3: torn-insert repair (attribute tails, dictionary head
  // publishes). O(columns): nothing is rebuilt.
  tracer.Begin("attach");
  tracer.Begin("repair_torn_inserts");
  HYRISE_NV_RETURN_NOT_OK(result.catalog->RepairAfterCrash());
  tracer.End();
  result.report.attach_seconds = tracer.End();

  result.report.trace = tracer.Finish();
  result.report.total_seconds = result.report.trace.seconds;
  return result;
}

}  // namespace

Result<NvmRestartResult> InstantRestart(
    const nvm::PmemRegionOptions& options) {
  NvmRestartResult result;
  obs::SpanTracer tracer("instant_restart");
  tracer.Begin("map");
  auto heap_result = alloc::PHeap::Open(options);
  if (!heap_result.ok()) return heap_result.status();
  result.heap = std::move(heap_result).ValueUnsafe();
  result.report.map_seconds = tracer.End();
  result.report.was_clean_shutdown = result.heap->was_clean_shutdown();
  return FinishRestart(std::move(result), tracer);
}

Result<NvmRestartResult> InstantRestart(const NvmRestartOptions& options) {
  if (options.level == ValidationLevel::kFastHeaderOnly &&
      !options.salvage) {
    return InstantRestart(options.region);
  }

  NvmRestartResult result;
  obs::SpanTracer tracer("instant_restart");
  // Map without mutating: the image must stay byte-identical until we
  // decide it is trustworthy (or decide to serve it read-only).
  tracer.Begin("map");
  auto heap_result = alloc::PHeap::OpenForInspection(options.region);
  if (!heap_result.ok()) return heap_result.status();
  result.heap = std::move(heap_result).ValueUnsafe();
  result.report.map_seconds = tracer.End();
  result.report.was_clean_shutdown = result.heap->was_clean_shutdown();

  tracer.Begin("verify");
  result.report.verify = DeepVerify(result.heap->region());
  result.report.verify_seconds = tracer.End();
  const VerifyReport& verify = result.report.verify;

  if (verify.has_fatal() || (!options.salvage && verify.blocking())) {
    return Status::Corruption("NVM image failed deep verification: " +
                              verify.Summary());
  }

  if (!options.salvage) {
    HYRISE_NV_RETURN_NOT_OK(result.heap->FinishOpen());
    return FinishRestart(std::move(result), tracer);
  }

  // Salvage: bind everything except the tables with findings, and leave
  // the image untouched — no allocator recovery, no in-flight commit
  // rollforward, no torn-insert repair, no dirty mark. The caller must
  // enforce read-only use.
  std::unordered_set<uint64_t> skip;
  for (const auto& finding : verify.findings) {
    if (finding.table_meta_off == 0 ||
        skip.count(finding.table_meta_off)) {
      continue;
    }
    skip.insert(finding.table_meta_off);
    result.quarantined_tables.push_back(finding.table);
  }
  tracer.Begin("attach");
  auto catalog_result = storage::Catalog::Attach(*result.heap, &skip);
  if (!catalog_result.ok()) return catalog_result.status();
  result.catalog = std::move(catalog_result).ValueUnsafe();
  auto txn_result = txn::TxnManager::Attach(*result.heap);
  if (!txn_result.ok()) return txn_result.status();
  result.txn_manager = std::move(txn_result).ValueUnsafe();
  result.report.attach_seconds = tracer.End();
  result.salvage_read_only = true;
  result.report.trace = tracer.Finish();
  result.report.total_seconds = result.report.trace.seconds;
  return result;
}

Result<NvmRestartResult> InstantRestartFromHeap(
    std::unique_ptr<alloc::PHeap> heap) {
  NvmRestartResult result;
  obs::SpanTracer tracer("instant_restart");
  tracer.Begin("map");
  result.heap = std::move(heap);
  HYRISE_NV_RETURN_NOT_OK(result.heap->allocator().Recover());
  result.heap->AttachBlackbox();
  result.report.map_seconds = tracer.End();
  result.report.was_clean_shutdown = false;
  return FinishRestart(std::move(result), tracer);
}

}  // namespace hyrise_nv::recovery
