#ifndef HYRISE_NV_STORAGE_MVCC_H_
#define HYRISE_NV_STORAGE_MVCC_H_

#include <cstdint>

#include "nvm/pmem_region.h"
#include "storage/types.h"

namespace hyrise_nv::storage {

/// Snapshot-visibility of a row version (Hyrise insert-only MVCC).
///
/// Rules:
///  * An uncommitted insert (begin == ∞) is visible only to its owning
///    transaction — and not even to it once self-deleted (end != ∞).
///  * A committed version is visible iff begin <= snapshot < end.
///  * A committed row claimed by the *reading* transaction for deletion
///    (tid == my_tid) is already invisible to that transaction.
///
/// Stamps written by a crashed commit never become visible: the commit
/// protocol re-stamps from the persistent touch list on recovery (roll
/// forward) or never wrote a commit record (the begins stay ∞).
bool IsVisible(const MvccEntry& entry, Cid snapshot, Tid my_tid);

/// Attempts to claim `entry` for invalidation (delete / update-old-row) on
/// behalf of `my_tid`. `tid_is_active(t)` must return whether transaction
/// `t` is currently live; stale claims from crashed or finished
/// transactions are stolen. The claim is persisted. Returns
/// TransactionConflict if another live transaction holds the row, or if
/// the row is already deleted.
template <typename IsActiveFn>
Status ClaimForInvalidate(nvm::PmemRegion& region, MvccEntry* entry,
                          Tid my_tid, IsActiveFn&& tid_is_active) {
  const Tid current = __atomic_load_n(&entry->tid, __ATOMIC_ACQUIRE);
  if (current == my_tid) {
    return Status::OK();  // already claimed by us (idempotent)
  }
  if (current != kTidNone && tid_is_active(current)) {
    return Status::TransactionConflict("row claimed by live transaction " +
                                       std::to_string(current));
  }
  Tid expected = current;
  if (!__atomic_compare_exchange_n(&entry->tid, &expected, my_tid, false,
                                   __ATOMIC_ACQ_REL, __ATOMIC_ACQUIRE)) {
    return Status::TransactionConflict("row claim raced");
  }
  // The claim may have been stolen from a transaction that committed its
  // delete: its end stamp precedes its tid release, so the acquire CAS
  // above makes that stamp visible here.
  if (__atomic_load_n(&entry->end, __ATOMIC_ACQUIRE) != kCidInfinity) {
    __atomic_store_n(&entry->tid, current, __ATOMIC_RELEASE);
    return Status::TransactionConflict("row already deleted");
  }
  region.Persist(&entry->tid, sizeof(entry->tid));
  return Status::OK();
}

/// Releases a claim (abort path). Persisted.
void ReleaseClaim(nvm::PmemRegion& region, MvccEntry* entry, Tid my_tid);

/// Marks an own uncommitted insert as self-deleted (end = 0). Persisted.
void MarkSelfDeleted(nvm::PmemRegion& region, MvccEntry* entry);

}  // namespace hyrise_nv::storage

#endif  // HYRISE_NV_STORAGE_MVCC_H_
