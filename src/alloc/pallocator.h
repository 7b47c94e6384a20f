#ifndef HYRISE_NV_ALLOC_PALLOCATOR_H_
#define HYRISE_NV_ALLOC_PALLOCATOR_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "alloc/reader_epochs.h"
#include "common/macros.h"
#include "common/status.h"
#include "nvm/pmem_region.h"

namespace hyrise_nv::alloc {

/// Number of segregated size classes (powers of two from 32 B).
constexpr size_t kNumSizeClasses = 28;
/// Smallest payload class, bytes.
constexpr uint64_t kMinClassSize = 32;

/// Per-block on-NVM header preceding every payload.
struct BlockHeader {
  static constexpr uint64_t kMagicValue = 0xB10CB10CB10CB10Cull;
  static constexpr uint64_t kStateFree = 0;
  static constexpr uint64_t kStateAllocated = 1;

  uint64_t size;   // payload (class) size in bytes
  uint64_t state;  // kStateFree / kStateAllocated
  uint64_t next;   // next free block offset when on a free list
  uint64_t magic;  // corruption detector
};
static_assert(sizeof(BlockHeader) == 32, "block header layout");

/// Persistent allocator state, stored at a fixed offset after the region
/// header.
struct AllocMeta {
  uint64_t heap_top;   // offset of first never-allocated byte
  uint64_t heap_end;   // end of allocatable range (== region size)
  uint64_t free_heads[kNumSizeClasses];  // per-class free-list heads
  uint64_t meta_crc;   // seal tag over the fields above (0 = unsealed)
};

/// Handle for a two-phase (intent-protected) allocation.
struct IntentHandle {
  uint32_t slot = UINT32_MAX;
  bool valid() const { return slot != UINT32_MAX; }
};

/// Crash-consistent segregated-fit allocator over a formatted PmemRegion.
///
/// Allocation discipline (DESIGN.md §4.2): every mutation of persistent
/// allocator metadata is a single persisted 8-byte store, ordered so that a
/// crash at any instruction boundary leaves the free lists and bump pointer
/// in a state recovery can finish or roll back. Allocations made with
/// AllocWithIntent are reclaimed by Recover() if the caller never committed
/// the intent (i.e., never published the block into a reachable structure).
///
/// Thread safety: all operations take an internal (volatile) mutex; the
/// persistent state never requires cross-crash locks.
class PAllocator {
 public:
  /// Initialises allocator metadata in a freshly formatted region.
  static Status Format(nvm::PmemRegion& region);

  /// Attaches to an existing region. `Recover()` must be called before the
  /// first allocation if the region was not cleanly shut down.
  explicit PAllocator(nvm::PmemRegion& region);
  HYRISE_NV_DISALLOW_COPY_AND_MOVE(PAllocator);

  /// Validates metadata and reclaims allocations with pending intents.
  Status Recover();

  /// Allocates at least `size` bytes; returns the payload offset.
  /// The block may leak if the process crashes before the caller publishes
  /// the offset into a reachable persistent structure — use AllocWithIntent
  /// for structural allocations.
  Result<uint64_t> Alloc(uint64_t size);

  /// Two-phase allocation: the block is registered in a persistent intent
  /// slot, so Recover() frees it unless CommitIntent was called.
  Result<uint64_t> AllocWithIntent(uint64_t size, IntentHandle* handle);

  /// Marks the intent complete (the caller has persisted a reachable
  /// reference to the block).
  void CommitIntent(IntentHandle handle);

  /// Frees the block and releases the intent slot.
  void AbortIntent(IntentHandle handle);

  /// Returns the block at `payload_offset` to its size-class free list.
  Status Free(uint64_t payload_offset);

  /// Frees `payload_offset` once no lock-free reader can still hold it:
  /// for a buffer a writer has just replaced (PVector growth, rehash).
  /// The wait is volatile — a crash before the grace period ends leaks
  /// the block. Also frees earlier deferred blocks that became safe.
  void FreeDeferred(uint64_t payload_offset);

  /// Frees every deferred block whose grace period has passed. With no
  /// reader inside, that is all of them (Close, quiesced merge).
  void ReclaimDeferred();

  /// The epochs readers pin while they dereference replaceable buffers.
  ReaderEpochs& reader_epochs() { return epochs_; }

  /// Payload size of the given allocation.
  Result<uint64_t> AllocSize(uint64_t payload_offset) const;

  /// Bytes between heap start and the bump pointer (upper bound on live
  /// data; free-listed blocks are included).
  uint64_t HeapUsedBytes() const;

  /// Offset where the allocatable heap begins.
  static uint64_t HeapBegin();

  /// Offset of the AllocMeta block within the region.
  static uint64_t MetaOffset();

  nvm::PmemRegion& region() { return region_; }

 private:
  AllocMeta* meta();
  const AllocMeta* meta() const;

  // Returns the class index whose size is >= size.
  static Result<size_t> ClassFor(uint64_t size);
  static uint64_t ClassSize(size_t cls) { return kMinClassSize << cls; }

  // Core allocation with optional intent slot already reserved.
  Result<uint64_t> AllocLocked(uint64_t size, uint32_t intent_slot);

  // Reserves a free intent slot (volatile bookkeeping only).
  Result<uint32_t> ReserveIntentSlot();

  void FreeBlockLocked(uint64_t block_offset);

  nvm::PmemRegion& region_;
  std::mutex mutex_;
  uint64_t intent_busy_bitmap_ = 0;  // volatile; rebuilt empty on restart

  struct DeferredFree {
    uint64_t offset;
    uint64_t tag;  // ReaderEpochs::RetireTag at retirement
  };
  ReaderEpochs epochs_;
  std::mutex deferred_mutex_;
  std::vector<DeferredFree> deferred_;  // guarded by deferred_mutex_
};

}  // namespace hyrise_nv::alloc

#endif  // HYRISE_NV_ALLOC_PALLOCATOR_H_
