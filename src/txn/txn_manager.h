#ifndef HYRISE_NV_TXN_TXN_MANAGER_H_
#define HYRISE_NV_TXN_TXN_MANAGER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "obs/trace.h"
#include "storage/catalog.h"
#include "txn/commit_pipeline.h"
#include "txn/commit_table.h"
#include "txn/transaction.h"

namespace hyrise_nv::obs {
class BlackboxWriter;
}  // namespace hyrise_nv::obs

namespace hyrise_nv::txn {

/// Hook invoked inside the commit/abort paths. The WAL engine implements
/// it to write (and group-sync) commit records; the NVM engine runs
/// without one — durability comes from the commit table itself.
///
/// OnCommit is called concurrently from parallel committers; hook
/// implementations synchronise internally (the WAL hook batches callers
/// into one group fsync).
class CommitHook {
 public:
  virtual ~CommitHook() = default;
  /// Called before rows are stamped; must make the commit durable in the
  /// hook's own medium (e.g. WAL record + sync).
  virtual Status OnCommit(storage::Cid cid, const Transaction& tx) = 0;
  /// Called after an abort rolled back volatile claims.
  virtual Status OnAbort(const Transaction& tx) = 0;
  /// 2PC phase one (DESIGN.md §16): called after the commit-table slot is
  /// sealed kPrepared; must make the prepare vote durable in the hook's
  /// own medium (WAL kPrepare record joining the commit group fsync).
  virtual Status OnPrepare(uint64_t gtid, const Transaction& tx) {
    (void)gtid;
    (void)tx;
    return Status::OK();
  }
};

/// Registry of active transactions, sharded by TID so concurrent
/// Begin/Commit/Abort don't contend on one mutex. TIDs are sequential,
/// so `tid % kShards` round-robins neighbouring transactions onto
/// different shards.
///
/// Holding the shared context (not just the tid) lets AbortAllActive
/// roll back write sets whose Transaction handles live elsewhere (or
/// nowhere — a dead client).
class ActiveTxnRegistry {
 public:
  static constexpr size_t kShards = 16;

  void Insert(storage::Tid tid, std::shared_ptr<TxnContext> ctx) {
    Shard& s = shard(tid);
    std::lock_guard<std::mutex> guard(s.mutex);
    s.txns.emplace(tid, std::move(ctx));
  }
  void Erase(storage::Tid tid) {
    Shard& s = shard(tid);
    std::lock_guard<std::mutex> guard(s.mutex);
    s.txns.erase(tid);
  }
  bool Contains(storage::Tid tid) const {
    const Shard& s = shard(tid);
    std::lock_guard<std::mutex> guard(s.mutex);
    return s.txns.count(tid) > 0;
  }
  size_t Count() const {
    size_t total = 0;
    for (const Shard& s : shards_) {
      std::lock_guard<std::mutex> guard(s.mutex);
      total += s.txns.size();
    }
    return total;
  }
  /// Any one active context, or nullptr when empty (AbortAllActive's
  /// work loop).
  std::shared_ptr<TxnContext> PeekAny() const {
    for (const Shard& s : shards_) {
      std::lock_guard<std::mutex> guard(s.mutex);
      if (!s.txns.empty()) return s.txns.begin()->second;
    }
    return nullptr;
  }

 private:
  struct alignas(64) Shard {
    mutable std::mutex mutex;
    std::unordered_map<storage::Tid, std::shared_ptr<TxnContext>> txns;
  };
  Shard& shard(storage::Tid tid) { return shards_[tid % kShards]; }
  const Shard& shard(storage::Tid tid) const {
    return shards_[tid % kShards];
  }
  Shard shards_[kShards];
};

/// MVCC transaction manager implementing the paper's NVM commit protocol
/// (DESIGN.md §4.4) as a concurrent pipeline (DESIGN.md §12):
///
///   1. writes leave rows claimed (tid) and unstamped (begin = ∞);
///   2. Commit acquires a commit slot, draws a CID from a lock-free
///      block allocator, persists the touch list and flips the slot to
///      kCommitting (durability point), runs the durability hook, stamps
///      every touched row with the CID — all concurrently with other
///      committers — and finally publishes through the ordered-publish
///      queue, which advances the persisted watermark strictly in CID
///      order (batched over whole runs of finished commits);
///   3. a crash at any point either rolls the commit forward (slot was
///      committing → recovery re-stamps, idempotently) or leaves the
///      transaction invisible (no slot → claims are stale, stolen later).
///
/// TIDs and CIDs are drawn from persisted blocks so they are never reused
/// across restarts without scanning anything.
class TxnManager {
 public:
  TxnManager(alloc::PHeap& heap, std::unique_ptr<CommitTable> commit_table);

  static Result<std::unique_ptr<TxnManager>> Format(alloc::PHeap& heap);
  static Result<std::unique_ptr<TxnManager>> Attach(alloc::PHeap& heap);

  HYRISE_NV_DISALLOW_COPY_AND_MOVE(TxnManager);

  /// Starts a transaction with a snapshot of the current watermark.
  Result<Transaction> Begin();

  /// Commits: assigns a CID, persists the commit, stamps rows, publishes
  /// in CID order. Invokes `hook` (if set) before stamping. Safe to call
  /// from many threads at once.
  Status Commit(Transaction& tx);

  /// Aborts: releases claims, tombstones own inserts.
  Status Abort(Transaction& tx);

  /// 2PC phase one: durably seals the transaction's write set under the
  /// coordinator-issued `gtid` (kPrepared commit slot + OnPrepare hook)
  /// and moves it from the active registry to the prepared registry. The
  /// transaction no longer belongs to any session; its row claims stay
  /// held (IsActive covers prepared TIDs) and its effects stay invisible
  /// until Decide. Fails (transaction still active, caller aborts) if the
  /// durability step fails. Read-only transactions prepare without any
  /// durable state. Rejects duplicate gtids.
  Status Prepare(Transaction& tx, uint64_t gtid);

  /// 2PC phase two: commits (assigns a CID, stamps, publishes) or aborts
  /// (releases claims) the prepared transaction `gtid`. Idempotent by
  /// design: an unknown gtid answers OK, so coordinator retries and
  /// client reconnect races are harmless (the coordinator never flips a
  /// logged decision).
  Status Decide(uint64_t gtid, bool commit);

  /// Gtids of every prepared-but-undecided transaction (the kInDoubt
  /// wire answer for the coordinator's recovery handshake).
  std::vector<uint64_t> InDoubtGtids() const;

  /// Number of prepared-but-undecided transactions.
  size_t PreparedCount() const;

  /// Recovery: adopts a reconstructed in-doubt transaction (WAL replay
  /// path; ctx->prepared_slot == nullptr, a slot is acquired at decide
  /// time). The ctx must carry tid, gtid, state kPrepared and the
  /// rebuilt write set.
  void AdoptPrepared(std::shared_ptr<TxnContext> ctx);

  /// Like AdoptPrepared, but first acquires and seals a kPrepared commit
  /// slot for the write set (no OnPrepare hook — the log already holds
  /// the prepare record). Used when the commit table itself must reflect
  /// the in-doubt state, e.g. when rebuilding an NVM image from the log.
  Status SealAdoptedPrepared(std::shared_ptr<TxnContext> ctx);

  /// Recovery: scans the commit table for kPrepared slots (NVM instant
  /// restart path) and adopts each as an in-doubt transaction, rebuilding
  /// its write set from the persisted touch list. The original slot is
  /// kept claimed and reused at decide time so a later restart never sees
  /// a stale prepared slot for a decided transaction.
  Status AdoptPreparedFromTable(storage::Catalog& catalog);

  /// Whether `tid` belongs to a currently active or prepared transaction
  /// (prepared TIDs must stay "live" or their row claims would be stolen).
  bool IsActive(storage::Tid tid) const;

  /// Number of currently active transactions.
  size_t ActiveCount() const;

  /// Force-aborts every active transaction (claims released, own inserts
  /// tombstoned) — the shutdown/drain path: after it returns no
  /// transaction is active and Close() can seal a clean image. Returns
  /// the number aborted; individual abort failures are logged, counted,
  /// and do not stop the sweep.
  size_t AbortAllActive();

  storage::Cid watermark() const { return commit_table_->watermark(); }

  /// A snapshot for ad-hoc reads outside a transaction.
  storage::Cid ReadSnapshot() const { return commit_table_->watermark(); }

  void set_commit_hook(CommitHook* hook) { hook_ = hook; }

  /// Samples one in every `sample_every` transactions for span tracing
  /// (0 disables). Sampled commits record per-phase latencies to the
  /// txn.trace.* histograms, emit a kTxnTrace flight-recorder event, and
  /// publish their span tree via LastSampledTrace().
  void SetTxnSampling(uint64_t sample_every) {
    sample_every_.store(sample_every, std::memory_order_relaxed);
  }
  uint64_t txn_sampling() const {
    return sample_every_.load(std::memory_order_relaxed);
  }

  /// Span tree of the most recent sampled commit (empty before the first
  /// one). Thread-safe copy.
  obs::SpanNode LastSampledTrace() const;

  /// Recovery: completes all in-flight commits found on NVM. `catalog`
  /// resolves table ids. O(in-flight work), independent of data size.
  Status RecoverInFlight(storage::Catalog& catalog);

  CommitTable& commit_table() { return *commit_table_; }

 private:
  // Stamps all writes of a commit with `cid` and clears claims.
  void StampWrites(const std::vector<Write>& writes, storage::Cid cid);
  /// Abort side of StampWrites: releases claims and own inserts.
  void ReleaseWrites(const std::vector<Write>& writes, storage::Tid tid);

  // Draws one CID from the lock-free allocator, priming the ordered
  // publisher with the first block, and retiring any CID abandoned by a
  // failed block refill so the publish queue can't stall on it.
  Result<storage::Cid> AllocCid();

  // Builds + publishes the span tree of a sampled commit and feeds the
  // txn.trace.* histograms and the flight recorder.
  void RecordSampledTrace(const Transaction& tx, uint64_t write_set_end,
                          uint64_t persist_end, uint64_t commit_end,
                          obs::BlackboxWriter* bb);

  // Commits a prepared transaction (decide path; `tx` is kPrepared).
  Status DecideCommit(Transaction& tx);
  // Aborts a prepared transaction (decide / presumed-abort path).
  Status DecideAbort(Transaction& tx);

  alloc::PHeap* heap_;
  std::unique_ptr<CommitTable> commit_table_;
  CommitHook* hook_ = nullptr;

  ActiveTxnRegistry active_;

  /// Prepared-but-undecided transactions, keyed by coordinator gtid, plus
  /// their TIDs (IsActive lookups). A bounded ring of recently decided
  /// gtids makes duplicate decides observable as repeats rather than
  /// unknowns (both answer OK). One mutex is fine: 2PC traffic is orders
  /// of magnitude rarer than single-shard commits.
  mutable std::mutex prepared_mutex_;
  std::unordered_map<uint64_t, std::shared_ptr<TxnContext>> prepared_;
  std::unordered_map<storage::Tid, uint64_t> prepared_tids_;
  static constexpr size_t kRetiredGtidRing = 1024;
  std::vector<uint64_t> retired_gtids_;
  size_t retired_cursor_ = 0;

  IdAllocator tid_alloc_{kTidBlockSize};
  IdAllocator cid_alloc_{kTidBlockSize};
  OrderedPublisher publisher_;

  std::atomic<uint64_t> sample_every_{0};
  std::atomic<uint64_t> sample_counter_{0};
  mutable std::mutex trace_mutex_;
  obs::SpanNode last_trace_;
};

}  // namespace hyrise_nv::txn

#endif  // HYRISE_NV_TXN_TXN_MANAGER_H_
