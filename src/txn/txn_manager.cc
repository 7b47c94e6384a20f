#include "txn/txn_manager.h"

#include <mutex>
#include <unordered_map>

#include "common/logging.h"
#include "obs/blackbox.h"
#include "obs/metrics.h"
#include "storage/mvcc.h"

namespace hyrise_nv::txn {

TxnManager::TxnManager(alloc::PHeap& heap,
                       std::unique_ptr<CommitTable> commit_table)
    : heap_(&heap), commit_table_(std::move(commit_table)) {}

Result<std::unique_ptr<TxnManager>> TxnManager::Format(alloc::PHeap& heap) {
  auto table_result = CommitTable::Format(heap);
  if (!table_result.ok()) return table_result.status();
  return std::make_unique<TxnManager>(heap,
                                      std::move(table_result).ValueUnsafe());
}

Result<std::unique_ptr<TxnManager>> TxnManager::Attach(alloc::PHeap& heap) {
  auto table_result = CommitTable::Attach(heap);
  if (!table_result.ok()) return table_result.status();
  return std::make_unique<TxnManager>(heap,
                                      std::move(table_result).ValueUnsafe());
}

Result<Transaction> TxnManager::Begin() {
  auto tid_result =
      tid_alloc_.Alloc([this] { return commit_table_->ClaimTidBlock(); });
  if (!tid_result.ok()) return tid_result.status();
  const storage::Tid tid = *tid_result;
  auto ctx = std::make_shared<TxnContext>();
  ctx->tid = tid;
  ctx->snapshot = commit_table_->watermark();
  active_.Insert(tid, ctx);
  Transaction tx(std::move(ctx));
#if HYRISE_NV_METRICS_ENABLED
  static obs::Counter& begin_count =
      obs::MetricsRegistry::Instance().GetCounter("txn.begin.count");
  begin_count.Inc();
  if (obs::BlackboxWriter* bb = heap_->blackbox()) {
    bb->Record(obs::BlackboxEventType::kTxnBegin, tid, tx.snapshot());
  }
  const uint64_t every = sample_every_.load(std::memory_order_relaxed);
  if (every != 0 &&
      sample_counter_.fetch_add(1, std::memory_order_relaxed) % every ==
          0) {
    tx.MarkSampled(obs::FastClock::NowTicks());
  }
#endif
  return tx;
}

bool TxnManager::IsActive(storage::Tid tid) const {
  if (active_.Contains(tid)) return true;
  std::lock_guard<std::mutex> guard(prepared_mutex_);
  return prepared_tids_.count(tid) > 0;
}

size_t TxnManager::ActiveCount() const { return active_.Count(); }

size_t TxnManager::PreparedCount() const {
  std::lock_guard<std::mutex> guard(prepared_mutex_);
  return prepared_.size();
}

std::vector<uint64_t> TxnManager::InDoubtGtids() const {
  std::lock_guard<std::mutex> guard(prepared_mutex_);
  std::vector<uint64_t> gtids;
  gtids.reserve(prepared_.size());
  for (const auto& [gtid, ctx] : prepared_) gtids.push_back(gtid);
  return gtids;
}

size_t TxnManager::AbortAllActive() {
  size_t aborted = 0;
  while (true) {
    std::shared_ptr<TxnContext> ctx = active_.PeekAny();
    if (ctx == nullptr) break;
    Transaction tx(ctx);
    Status status = Abort(tx);
    if (status.ok()) {
      ++aborted;
      continue;
    }
    HYRISE_NV_LOG(kWarn) << "forced abort of tid " << ctx->tid
                         << " failed: " << status.ToString();
    // Guarantee progress: drop the registry entry even when the abort
    // path failed, or this loop would spin on the same transaction.
    active_.Erase(ctx->tid);
  }
  if (aborted > 0) {
    HYRISE_NV_LOG(kInfo) << "force-aborted " << aborted
                         << " still-active transaction(s)";
  }
  return aborted;
}

namespace {

/// Runs `fn(write, entry)` for every write with its table's write mutex
/// held. MVCC vectors grow under that mutex (Table::AppendRow copies the
/// buffer), so a stamp or claim release written outside it could land in
/// the old buffer after the copy and be lost. Consecutive writes to one
/// table share a hold; at most one mutex is held at a time.
template <typename Fn>
void ForEachWriteLocked(const std::vector<Write>& writes, Fn&& fn) {
  std::unique_lock<std::mutex> lock;
  const storage::Table* locked = nullptr;
  for (const Write& write : writes) {
    if (write.table != locked) {
      if (lock.owns_lock()) lock.unlock();
      lock = std::unique_lock<std::mutex>(write.table->write_mutex());
      locked = write.table;
    }
    fn(write, write.table->mvcc(write.loc));
  }
}

}  // namespace

void TxnManager::StampWrites(const std::vector<Write>& writes,
                             storage::Cid cid) {
  // CLWB batching: flush every stamped entry, then a single fence. The
  // ordered publish (the caller's next step) is what makes the commit
  // visible, so intra-batch ordering is irrelevant — only "all stamps
  // before the watermark covers cid" matters, which the fence plus the
  // publish queue guarantee.
  auto& region = heap_->region();
  ForEachWriteLocked(writes, [&](const Write& write,
                                 storage::MvccEntry* entry) {
    if (write.invalidate) {
      __atomic_store_n(&entry->end, cid, __ATOMIC_RELEASE);
    } else {
      __atomic_store_n(&entry->begin, cid, __ATOMIC_RELEASE);
    }
    __atomic_store_n(&entry->tid, storage::kTidNone, __ATOMIC_RELEASE);
    region.Flush(entry, sizeof(*entry));
  });
  region.Fence();
}

void TxnManager::ReleaseWrites(const std::vector<Write>& writes,
                               storage::Tid tid) {
  auto& region = heap_->region();
  ForEachWriteLocked(writes, [&](const Write& write,
                                 storage::MvccEntry* entry) {
    if (write.invalidate) {
      // Release the delete claim; any self-delete marker on an own insert
      // stays (the insert itself is dropped below).
      if (entry->begin != storage::kCidInfinity) {
        storage::ReleaseClaim(region, entry, tid);
      }
    } else {
      // Own insert: stays begin = ∞ forever (invisible garbage retired at
      // merge); release the tid so nothing mistakes it for in-flight.
      region.AtomicPersist64(&entry->tid, storage::kTidNone);
    }
  });
}

Result<storage::Cid> TxnManager::AllocCid() {
  uint64_t abandoned = IdAllocator::kNone;
  auto cid_result = cid_alloc_.Alloc(
      [this]() -> Result<uint64_t> {
        auto block_result = commit_table_->ClaimCidBlock();
        if (block_result.ok() && !publisher_.primed()) {
          // First block of this process: the lowest CID we will ever
          // issue is the publisher's initial frontier.
          publisher_.Prime(*block_result);
        }
        return block_result;
      },
      &abandoned);
  if (!cid_result.ok() && abandoned != IdAllocator::kNone) {
    // The failed refill consumed a CID nobody will ever stamp; retire it
    // so the dense publish queue doesn't wait for it forever.
    publisher_.Skip(abandoned, *commit_table_, heap_->blackbox());
  }
  return cid_result;
}

Status TxnManager::Commit(Transaction& tx) {
  if (!tx.active()) {
    return Status::InvalidArgument("commit of non-active transaction");
  }
#if HYRISE_NV_METRICS_ENABLED
  const uint64_t commit_start_ticks = obs::FastClock::NowTicks();
  const bool sampled = tx.sampled();
  uint64_t write_set_end_ticks = 0;  // after the commit-slot seal
  uint64_t persist_end_ticks = 0;    // after hook + row stamping
  static obs::Counter& commit_count =
      obs::MetricsRegistry::Instance().GetCounter("txn.commit.count");
#endif
  if (tx.read_only()) {
    tx.set_state(TxnState::kCommitted);
    active_.Erase(tx.tid());
#if HYRISE_NV_METRICS_ENABLED
    // Read-only commits skip the durable pipeline but still count: a
    // served read workload must show up in txn.commit.count and the
    // flight recorder (cid 0 = nothing published).
    commit_count.Inc();
    static obs::Counter& read_only_count =
        obs::MetricsRegistry::Instance().GetCounter(
            "txn.commit.read_only");
    read_only_count.Inc();
    if (obs::BlackboxWriter* bb = heap_->blackbox()) {
      bb->Record(obs::BlackboxEventType::kTxnCommit, tx.tid(), 0, 0, 0);
    }
#endif
    return Status::OK();
  }

  // Stage 1 — acquire a commit slot (may block when all kCommitSlots are
  // held). Ordering note: the slot is acquired *before* the CID so that
  // every issued CID is backed by a slot-holding committer that can make
  // progress; the reverse order can deadlock (64 slot holders blocked in
  // the publish queue on a predecessor CID whose owner is still waiting
  // for a slot).
  std::vector<TouchEntry> touches;
  touches.reserve(tx.writes().size());
  for (const Write& write : tx.writes()) {
    touches.push_back(TouchEntry::Make(write.table->id(), write.loc,
                                       write.invalidate));
  }
  auto slot_result = commit_table_->AcquireSlot(touches);
  if (!slot_result.ok()) return slot_result.status();
  PCommitSlot* slot = *slot_result;

  // Stage 2 — draw the CID (lock-free fast path).
  auto cid_result = AllocCid();
  if (!cid_result.ok()) {
    commit_table_->ReleaseSlot(slot);
    return cid_result.status();
  }
  const storage::Cid cid = *cid_result;

  // Stage 3 — seal the slot: persist the CID and flip to kCommitting.
  // Durability point; from here a crash rolls this commit forward.
  commit_table_->SealSlot(slot, cid);
#if HYRISE_NV_METRICS_ENABLED
  if (sampled) write_set_end_ticks = obs::FastClock::NowTicks();
#endif

  // Stage 4 — secondary durability hook (WAL engines append their commit
  // record and join a group fsync here, before any stamp is visible).
  if (hook_ != nullptr) {
#if HYRISE_NV_METRICS_ENABLED
    const uint64_t hook_start_ticks = obs::FastClock::NowTicks();
#endif
    Status hook_status = hook_->OnCommit(cid, tx);
#if HYRISE_NV_METRICS_ENABLED
    tx.set_wal_sync_ns(obs::FastClock::TicksToNanos(static_cast<int64_t>(
        obs::FastClock::NowTicks() - hook_start_ticks)));
#endif
    if (!hook_status.ok()) {
      // Free the slot *before* retiring the CID: once the publish queue
      // passes `cid` the watermark may advance over it, and a slot still
      // in kCommitting state at a crash would roll this failed commit
      // forward.
      commit_table_->ReleaseSlot(slot);
      publisher_.Skip(cid, *commit_table_, heap_->blackbox());
      return hook_status;
    }
  }

  // Stage 5 — stamp all rows (runs fully in parallel with other
  // committers; stamps are per-row atomic releases).
  StampWrites(tx.writes(), cid);
#if HYRISE_NV_METRICS_ENABLED
  if (sampled) persist_end_ticks = obs::FastClock::NowTicks();
#endif

  // Stage 6 — ordered publish: the watermark advances strictly in CID
  // order, batched over runs of finished commits. Blocks until the
  // watermark covers `cid` (read-your-writes).
#if HYRISE_NV_METRICS_ENABLED
  const uint64_t publish_start_ticks = obs::FastClock::NowTicks();
#endif
  const uint64_t queue_wait_ns =
      publisher_.Publish(cid, *commit_table_, heap_->blackbox());
  tx.set_commit_queue_wait_ns(queue_wait_ns);
#if HYRISE_NV_METRICS_ENABLED
  tx.set_commit_publish_ns(obs::FastClock::TicksToNanos(static_cast<int64_t>(
      obs::FastClock::NowTicks() - publish_start_ticks)));
#endif

  // Stage 7 — release the slot and retire the transaction.
  commit_table_->ReleaseSlot(slot);
  tx.set_commit_cid(cid);
  tx.set_state(TxnState::kCommitted);
  active_.Erase(tx.tid());
#if HYRISE_NV_METRICS_ENABLED
  // Covers the full durable-commit path: slot acquisition, CID
  // allocation, commit-slot persist, the WAL hook (append + group sync),
  // row stamping, and the ordered publish — the engine-side tail latency
  // a client observes.
  static obs::Histogram& commit_latency =
      obs::MetricsRegistry::Instance().GetHistogram("txn.commit.latency_ns");
  const uint64_t commit_end_ticks = obs::FastClock::NowTicks();
  const uint64_t latency_ns = obs::FastClock::TicksToNanos(
      static_cast<int64_t>(commit_end_ticks - commit_start_ticks));
  commit_latency.Record(latency_ns);
  commit_count.Inc();
  obs::BlackboxWriter* bb = heap_->blackbox();
  if (bb != nullptr) {
    bb->Record(obs::BlackboxEventType::kTxnCommit, tx.tid(), cid,
               tx.writes().size(), latency_ns);
  }
  if (sampled) {
    RecordSampledTrace(tx, write_set_end_ticks, persist_end_ticks,
                       commit_end_ticks, bb);
  }
#endif
  return Status::OK();
}

void TxnManager::RecordSampledTrace(const Transaction& tx,
                                    uint64_t write_set_end,
                                    uint64_t persist_end,
                                    uint64_t commit_end,
                                    obs::BlackboxWriter* bb) {
#if HYRISE_NV_METRICS_ENABLED
  using obs::FastClock;
  // Phase spans of the commit pipeline: begin→write-set (slot acquire +
  // CID alloc + touch-list/commit-slot persist), persist (WAL hook + row
  // stamping), commit-publish (ordered publish + slot release) with its
  // queue-wait portion as a child span. Total runs from Begin().
  const uint64_t begin = tx.begin_ticks();
  const uint64_t total_ns = FastClock::TicksToNanos(
      static_cast<int64_t>(commit_end - begin));
  const uint64_t write_set_ns = FastClock::TicksToNanos(
      static_cast<int64_t>(write_set_end - begin));
  const uint64_t persist_ns = FastClock::TicksToNanos(
      static_cast<int64_t>(persist_end - write_set_end));
  const uint64_t publish_ns = FastClock::TicksToNanos(
      static_cast<int64_t>(commit_end - persist_end));
  const uint64_t queue_wait_ns = tx.commit_queue_wait_ns();

  static obs::Histogram& h_write_set =
      obs::MetricsRegistry::Instance().GetHistogram(
          "txn.trace.write_set_ns");
  static obs::Histogram& h_persist =
      obs::MetricsRegistry::Instance().GetHistogram("txn.trace.persist_ns");
  static obs::Histogram& h_publish =
      obs::MetricsRegistry::Instance().GetHistogram("txn.trace.publish_ns");
  static obs::Histogram& h_total =
      obs::MetricsRegistry::Instance().GetHistogram("txn.trace.total_ns");
  h_write_set.Record(write_set_ns);
  h_persist.Record(persist_ns);
  h_publish.Record(publish_ns);
  h_total.Record(total_ns);

  if (bb != nullptr) {
    bb->Record(obs::BlackboxEventType::kTxnTrace, tx.tid(), write_set_ns,
               persist_ns, publish_ns, total_ns);
  }

  obs::SpanNode trace;
  trace.name = "txn_commit";
  trace.seconds = static_cast<double>(total_ns) / 1e9;
  obs::SpanNode child;
  child.name = "write_set";
  child.seconds = static_cast<double>(write_set_ns) / 1e9;
  trace.children.push_back(child);
  child.name = "persist";
  child.seconds = static_cast<double>(persist_ns) / 1e9;
  // The WAL hook (append + group fsync) dominates persist for log-based
  // engines; breaking it out lets a wire→txn→WAL trace blame the fsync.
  obs::SpanNode wal_child;
  wal_child.name = "wal_sync";
  wal_child.seconds = static_cast<double>(tx.wal_sync_ns()) / 1e9;
  child.children.push_back(std::move(wal_child));
  trace.children.push_back(child);
  child.children.clear();
  child.name = "commit_publish";
  child.seconds = static_cast<double>(publish_ns) / 1e9;
  obs::SpanNode queue_child;
  queue_child.name = "queue_wait";
  queue_child.seconds = static_cast<double>(queue_wait_ns) / 1e9;
  child.children.push_back(std::move(queue_child));
  trace.children.push_back(std::move(child));
  std::lock_guard<std::mutex> guard(trace_mutex_);
  last_trace_ = std::move(trace);
#else
  (void)tx;
  (void)write_set_end;
  (void)persist_end;
  (void)commit_end;
  (void)bb;
#endif
}

obs::SpanNode TxnManager::LastSampledTrace() const {
  std::lock_guard<std::mutex> guard(trace_mutex_);
  return last_trace_;
}

Status TxnManager::Abort(Transaction& tx) {
  if (!tx.active()) {
    return Status::InvalidArgument("abort of non-active transaction");
  }
  ReleaseWrites(tx.writes(), tx.tid());
  if (hook_ != nullptr) {
    HYRISE_NV_RETURN_NOT_OK(hook_->OnAbort(tx));
  }
  tx.set_state(TxnState::kAborted);
#if HYRISE_NV_METRICS_ENABLED
  static obs::Counter& abort_count =
      obs::MetricsRegistry::Instance().GetCounter("txn.abort.count");
  abort_count.Inc();
  if (obs::BlackboxWriter* bb = heap_->blackbox()) {
    bb->Record(obs::BlackboxEventType::kTxnAbort, tx.tid(),
               tx.writes().size());
  }
#endif
  active_.Erase(tx.tid());
  return Status::OK();
}

Status TxnManager::Prepare(Transaction& tx, uint64_t gtid) {
  if (!tx.active()) {
    return Status::InvalidArgument("prepare of non-active transaction");
  }
  {
    std::lock_guard<std::mutex> guard(prepared_mutex_);
    if (prepared_.count(gtid) > 0) {
      return Status::AlreadyExists("gtid " + std::to_string(gtid) +
                                   " already prepared");
    }
  }

  PCommitSlot* slot = nullptr;
  if (!tx.read_only()) {
    // Same slot-before-seal discipline as Commit stages 1+3, but the seal
    // carries (tid, gtid) instead of a CID: the durability point of the
    // prepare vote. No CID exists yet — visibility stays untouched.
    std::vector<TouchEntry> touches;
    touches.reserve(tx.writes().size());
    for (const Write& write : tx.writes()) {
      touches.push_back(TouchEntry::Make(write.table->id(), write.loc,
                                         write.invalidate));
    }
    auto slot_result = commit_table_->AcquireSlot(touches);
    if (!slot_result.ok()) return slot_result.status();
    slot = *slot_result;
    commit_table_->SealSlotPrepared(slot, tx.tid(), gtid);

    if (hook_ != nullptr) {
      Status hook_status = hook_->OnPrepare(gtid, tx);
      if (!hook_status.ok()) {
        // Unwind: the slot goes back to kFree, the transaction stays
        // active, and the caller aborts it (a half-written WAL prepare
        // record without a decide resolves to presumed abort on replay).
        commit_table_->ReleaseSlot(slot);
        return hook_status;
      }
    }
  }

  // Register as prepared *before* leaving the active registry so IsActive
  // never has a gap — a gap would let a concurrent writer steal this
  // transaction's row claims mid-handoff.
  std::shared_ptr<TxnContext> ctx = tx.context();
  ctx->gtid = gtid;
  ctx->prepared_slot = slot;
  {
    std::lock_guard<std::mutex> guard(prepared_mutex_);
    prepared_.emplace(gtid, ctx);
    prepared_tids_.emplace(ctx->tid, gtid);
  }
  tx.set_state(TxnState::kPrepared);
  active_.Erase(ctx->tid);
#if HYRISE_NV_METRICS_ENABLED
  static obs::Counter& prepare_count =
      obs::MetricsRegistry::Instance().GetCounter("txn.prepare.count");
  prepare_count.Inc();
  if (obs::BlackboxWriter* bb = heap_->blackbox()) {
    bb->Record(obs::BlackboxEventType::kTxnPrepare, ctx->tid, gtid,
               ctx->writes.size());
  }
#endif
  return Status::OK();
}

Status TxnManager::Decide(uint64_t gtid, bool commit) {
  std::shared_ptr<TxnContext> ctx;
  {
    std::lock_guard<std::mutex> guard(prepared_mutex_);
    auto it = prepared_.find(gtid);
    if (it == prepared_.end()) {
      // Unknown gtid: already decided here (possibly by a concurrent
      // retry that still holds the ctx) or never prepared. Either way OK
      // — the coordinator never flips a logged decision, so answering
      // success to a duplicate or stale decide is always safe.
      return Status::OK();
    }
    ctx = it->second;
    prepared_.erase(it);  // this call owns the decision now
  }
  Transaction tx(ctx);
  Status status = commit ? DecideCommit(tx) : DecideAbort(tx);
  if (!status.ok()) {
    // Put it back so a coordinator retry can try again.
    std::lock_guard<std::mutex> guard(prepared_mutex_);
    prepared_.emplace(gtid, ctx);
    return status;
  }
  {
    // Drop the TID only after all effects landed (claims must look live
    // until stamped/released), and remember the gtid in the retired ring.
    std::lock_guard<std::mutex> guard(prepared_mutex_);
    prepared_tids_.erase(ctx->tid);
    if (retired_gtids_.size() < kRetiredGtidRing) {
      retired_gtids_.push_back(gtid);
    } else {
      retired_gtids_[retired_cursor_] = gtid;
      retired_cursor_ = (retired_cursor_ + 1) % kRetiredGtidRing;
    }
  }
#if HYRISE_NV_METRICS_ENABLED
  static obs::Counter& decide_commit_count =
      obs::MetricsRegistry::Instance().GetCounter("txn.decide.commit");
  static obs::Counter& decide_abort_count =
      obs::MetricsRegistry::Instance().GetCounter("txn.decide.abort");
  (commit ? decide_commit_count : decide_abort_count).Inc();
  if (obs::BlackboxWriter* bb = heap_->blackbox()) {
    bb->Record(obs::BlackboxEventType::kTxnDecide, gtid, commit ? 1 : 0,
               ctx->commit_cid);
  }
#endif
  return Status::OK();
}

Status TxnManager::DecideCommit(Transaction& tx) {
  if (tx.read_only()) {
    tx.set_state(TxnState::kCommitted);
    return Status::OK();
  }
  // A live-prepared or NVM-adopted transaction still holds its sealed
  // slot; a WAL-replay-adopted one (prepared_slot == nullptr) acquires a
  // fresh slot now, through the normal path.
  PCommitSlot* slot = tx.context()->prepared_slot;
  bool fresh_slot = false;
  if (slot == nullptr) {
    std::vector<TouchEntry> touches;
    touches.reserve(tx.writes().size());
    for (const Write& write : tx.writes()) {
      touches.push_back(TouchEntry::Make(write.table->id(), write.loc,
                                         write.invalidate));
    }
    auto slot_result = commit_table_->AcquireSlot(touches);
    if (!slot_result.ok()) return slot_result.status();
    slot = *slot_result;
    fresh_slot = true;
  }

  auto cid_result = AllocCid();
  if (!cid_result.ok()) {
    if (fresh_slot) commit_table_->ReleaseSlot(slot);
    return cid_result.status();
  }
  const storage::Cid cid = *cid_result;

  // kPrepared → kCommitting: from here a crash rolls the commit forward
  // through the ordinary in-flight recovery, and the prepared slot can
  // never resurrect as in-doubt again.
  commit_table_->SealSlot(slot, cid);

  if (hook_ != nullptr) {
    Status hook_status = hook_->OnCommit(cid, tx);
    if (!hook_status.ok()) {
      if (fresh_slot) {
        commit_table_->ReleaseSlot(slot);
      } else {
        // Re-seal as prepared: in WAL mode the log (which still says
        // "prepared, undecided") is the recovery source, so the volatile
        // slot must agree for a coordinator retry to find the txn.
        commit_table_->SealSlotPrepared(slot, tx.tid(),
                                        tx.context()->gtid);
      }
      publisher_.Skip(cid, *commit_table_, heap_->blackbox());
      return hook_status;
    }
  }

  StampWrites(tx.writes(), cid);
  publisher_.Publish(cid, *commit_table_, heap_->blackbox());
  commit_table_->ReleaseSlot(slot);
  tx.set_commit_cid(cid);
  tx.set_state(TxnState::kCommitted);
#if HYRISE_NV_METRICS_ENABLED
  static obs::Counter& commit_count =
      obs::MetricsRegistry::Instance().GetCounter("txn.commit.count");
  commit_count.Inc();
  if (obs::BlackboxWriter* bb = heap_->blackbox()) {
    bb->Record(obs::BlackboxEventType::kTxnCommit, tx.tid(), cid,
               tx.writes().size(), 0);
  }
#endif
  return Status::OK();
}

Status TxnManager::DecideAbort(Transaction& tx) {
  ReleaseWrites(tx.writes(), tx.tid());
  if (hook_ != nullptr) {
    HYRISE_NV_RETURN_NOT_OK(hook_->OnAbort(tx));
  }
  if (PCommitSlot* slot = tx.context()->prepared_slot) {
    commit_table_->ReleaseSlot(slot);
    tx.context()->prepared_slot = nullptr;
  }
  tx.set_state(TxnState::kAborted);
#if HYRISE_NV_METRICS_ENABLED
  static obs::Counter& abort_count =
      obs::MetricsRegistry::Instance().GetCounter("txn.abort.count");
  abort_count.Inc();
  if (obs::BlackboxWriter* bb = heap_->blackbox()) {
    bb->Record(obs::BlackboxEventType::kTxnAbort, tx.tid(),
               tx.writes().size());
  }
#endif
  return Status::OK();
}

Status TxnManager::SealAdoptedPrepared(std::shared_ptr<TxnContext> ctx) {
  HYRISE_NV_DCHECK(ctx->state == TxnState::kPrepared,
                   "adopted ctx must be prepared");
  if (!ctx->writes.empty()) {
    std::vector<TouchEntry> touches;
    touches.reserve(ctx->writes.size());
    for (const Write& write : ctx->writes) {
      touches.push_back(TouchEntry::Make(write.table->id(), write.loc,
                                         write.invalidate));
    }
    auto slot_result = commit_table_->AcquireSlot(touches);
    if (!slot_result.ok()) return slot_result.status();
    commit_table_->SealSlotPrepared(*slot_result, ctx->tid, ctx->gtid);
    ctx->prepared_slot = *slot_result;
  }
  AdoptPrepared(std::move(ctx));
  return Status::OK();
}

void TxnManager::AdoptPrepared(std::shared_ptr<TxnContext> ctx) {
  HYRISE_NV_DCHECK(ctx->state == TxnState::kPrepared,
                   "adopted ctx must be prepared");
  std::lock_guard<std::mutex> guard(prepared_mutex_);
  prepared_tids_.emplace(ctx->tid, ctx->gtid);
  prepared_.emplace(ctx->gtid, std::move(ctx));
}

Status TxnManager::AdoptPreparedFromTable(storage::Catalog& catalog) {
  auto prepared_result = commit_table_->FindPrepared();
  if (!prepared_result.ok()) return prepared_result.status();
  if (prepared_result->empty()) return Status::OK();
  std::unordered_map<uint64_t, storage::Table*> tables_by_id;
  tables_by_id.reserve(catalog.tables().size());
  for (const auto& t : catalog.tables()) {
    tables_by_id.emplace(t->id(), t.get());
  }
  for (auto& prepared : *prepared_result) {
    auto ctx = std::make_shared<TxnContext>();
    ctx->tid = prepared.tid;
    ctx->gtid = prepared.gtid;
    ctx->state = TxnState::kPrepared;
    ctx->prepared_slot = prepared.slot;
    ctx->writes.reserve(prepared.touches.size());
    for (const TouchEntry& touch : prepared.touches) {
      auto table_it = tables_by_id.find(touch.table_id);
      if (table_it == tables_by_id.end()) {
        return Status::Corruption("prepared txn references table id " +
                                  std::to_string(touch.table_id));
      }
      storage::Table* table = table_it->second;
      const storage::RowLocation loc = touch.location();
      const uint64_t rows = loc.in_main ? table->main_row_count()
                                        : table->delta_row_count();
      if (loc.row >= rows) {
        return Status::Corruption("prepared txn references bad row");
      }
      ctx->writes.push_back(Write{table, loc, touch.invalidate()});
    }
    HYRISE_NV_LOG(kInfo) << "adopted in-doubt transaction gtid="
                         << prepared.gtid << " tid=" << prepared.tid
                         << " with " << ctx->writes.size() << " writes";
    AdoptPrepared(std::move(ctx));
  }
  return Status::OK();
}

Status TxnManager::RecoverInFlight(storage::Catalog& catalog) {
  auto in_flight_result = commit_table_->FindInFlight();
  if (!in_flight_result.ok()) return in_flight_result.status();
  auto& region = heap_->region();
  // Resolve table ids once: recovery cost stays O(tables + touches)
  // instead of O(tables × touches).
  std::unordered_map<uint64_t, storage::Table*> tables_by_id;
  tables_by_id.reserve(catalog.tables().size());
  for (const auto& t : catalog.tables()) {
    tables_by_id.emplace(t->id(), t.get());
  }
  for (auto& commit : *in_flight_result) {
    HYRISE_NV_LOG(kInfo) << "rolling forward in-flight commit cid="
                         << commit.cid << " with "
                         << commit.touches.size() << " touches";
    for (const TouchEntry& touch : commit.touches) {
      auto table_it = tables_by_id.find(touch.table_id);
      if (table_it == tables_by_id.end()) {
        return Status::Corruption("in-flight commit references table id " +
                                  std::to_string(touch.table_id));
      }
      storage::Table* table = table_it->second;
      const storage::RowLocation loc = touch.location();
      const uint64_t rows = loc.in_main ? table->main_row_count()
                                        : table->delta_row_count();
      if (loc.row >= rows) {
        return Status::Corruption("in-flight commit references bad row");
      }
      storage::MvccEntry* entry = table->mvcc(loc);
      if (touch.invalidate()) {
        region.AtomicPersist64(&entry->end, commit.cid);
      } else {
        region.AtomicPersist64(&entry->begin, commit.cid);
      }
      region.AtomicPersist64(&entry->tid, storage::kTidNone);
    }
    if (commit.cid > commit_table_->watermark()) {
      commit_table_->AdvanceWatermark(commit.cid);
    }
    commit_table_->ReleaseSlot(commit.slot);
  }
  return Status::OK();
}

}  // namespace hyrise_nv::txn
