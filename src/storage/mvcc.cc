#include "storage/mvcc.h"

#include "common/macros.h"

namespace hyrise_nv::storage {

bool IsVisible(const MvccEntry& entry, Cid snapshot, Tid my_tid) {
  // Atomic loads: committers stamp concurrently (TxnManager::StampWrites
  // stores begin/end, then releases tid).
  const Cid begin = __atomic_load_n(&entry.begin, __ATOMIC_ACQUIRE);
  const Cid end = __atomic_load_n(&entry.end, __ATOMIC_ACQUIRE);
  const Tid tid = __atomic_load_n(&entry.tid, __ATOMIC_ACQUIRE);
  if (begin == kCidInfinity) {
    // Uncommitted insert: only the owner sees it, and only while it has
    // not self-deleted it (end stays ∞ until then).
    if (my_tid == kTidNone || tid != my_tid) return false;
    return end == kCidInfinity;
  }
  if (begin > snapshot) return false;  // committed after snapshot
  if (my_tid != kTidNone && tid == my_tid) {
    // We claimed this committed row for invalidation.
    return false;
  }
  if (end != kCidInfinity && end <= snapshot) {
    return false;  // deleted at or before snapshot
  }
  return true;
}

void ReleaseClaim(nvm::PmemRegion& region, MvccEntry* entry, Tid my_tid) {
  HYRISE_NV_DCHECK(entry->tid == my_tid, "releasing someone else's claim");
  (void)my_tid;
  region.AtomicPersist64(&entry->tid, kTidNone);
}

void MarkSelfDeleted(nvm::PmemRegion& region, MvccEntry* entry) {
  HYRISE_NV_DCHECK(entry->begin == kCidInfinity,
                   "self-delete only applies to uncommitted inserts");
  region.AtomicPersist64(&entry->end, 0);
}

}  // namespace hyrise_nv::storage
