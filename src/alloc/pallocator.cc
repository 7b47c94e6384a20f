#include "alloc/pallocator.h"

#include <cstring>

#include "alloc/region_header.h"
#include "common/bit_util.h"
#include "common/logging.h"
#include "obs/blackbox.h"
#include "obs/metrics.h"

namespace hyrise_nv::alloc {

namespace {

constexpr uint64_t kBlockAlign = 64;

#if HYRISE_NV_METRICS_ENABLED
void NoteAllocated(uint64_t class_size) {
  static obs::Counter& alloc_count =
      obs::MetricsRegistry::Instance().GetCounter("alloc.alloc.count");
  static obs::Gauge& bytes_in_use =
      obs::MetricsRegistry::Instance().GetGauge("alloc.bytes_in_use");
  alloc_count.Inc();
  bytes_in_use.Add(static_cast<int64_t>(class_size));
}
#endif

uint64_t HeapBeginOffset() {
  return AlignUp(PAllocator::MetaOffset() + sizeof(AllocMeta),
                 kBlockAlign);
}

BlockHeader* BlockAt(nvm::PmemRegion& region, uint64_t block_offset) {
  return reinterpret_cast<BlockHeader*>(region.base() + block_offset);
}

}  // namespace

uint64_t PAllocator::HeapBegin() { return HeapBeginOffset(); }

uint64_t PAllocator::MetaOffset() {
  return AlignUp(sizeof(RegionHeader), kBlockAlign);
}

AllocMeta* PAllocator::meta() {
  return reinterpret_cast<AllocMeta*>(region_.base() + MetaOffset());
}
const AllocMeta* PAllocator::meta() const {
  return reinterpret_cast<const AllocMeta*>(region_.base() + MetaOffset());
}

Status PAllocator::Format(nvm::PmemRegion& region) {
  // The flight-recorder carve-out (obs/blackbox.h) owns the top of the
  // region; the heap ends where it begins. Zero for small regions.
  const uint64_t heap_end =
      region.size() - obs::BlackboxBytesFor(region.size());
  if (heap_end <= HeapBeginOffset() + kMinClassSize) {
    return Status::InvalidArgument("region too small for allocator");
  }
  auto* meta =
      reinterpret_cast<AllocMeta*>(region.base() + MetaOffset());
  std::memset(meta, 0, sizeof(AllocMeta));
  meta->heap_top = HeapBeginOffset();
  meta->heap_end = heap_end;
  region.Persist(meta, sizeof(AllocMeta));
  return Status::OK();
}

PAllocator::PAllocator(nvm::PmemRegion& region) : region_(region) {}

Result<size_t> PAllocator::ClassFor(uint64_t size) {
  if (size == 0) return Status::InvalidArgument("zero-size allocation");
  uint64_t cls_size = kMinClassSize;
  for (size_t cls = 0; cls < kNumSizeClasses; ++cls) {
    if (cls_size >= size) return cls;
    cls_size <<= 1;
  }
  return Status::InvalidArgument("allocation of " + std::to_string(size) +
                                 " bytes exceeds largest size class");
}

Status PAllocator::Recover() {
  auto* m = meta();
  if (m->heap_top < HeapBeginOffset() || m->heap_top > m->heap_end ||
      m->heap_end !=
          region_.size() - obs::BlackboxBytesFor(region_.size())) {
    return Status::Corruption("allocator metadata out of range");
  }
  {
    // Frees still waiting for a grace period died with the crash: their
    // blocks are allocated in the durable image and stay leaked.
    std::lock_guard<std::mutex> guard(deferred_mutex_);
    deferred_.clear();
  }
  // Reclaim allocations whose publication never completed.
  auto* header = HeaderOf(region_);
  for (auto& intent : header->intents) {
    if (intent.state != kIntentPending) continue;
    const uint64_t off = intent.offset;
    if (off != 0 && off < m->heap_top) {
      auto* block = BlockAt(region_, off);
      if (block->magic == BlockHeader::kMagicValue) {
        auto cls_result = ClassFor(block->size);
        if (!cls_result.ok()) return cls_result.status();
        const size_t cls = cls_result.ValueUnsafe();
        std::lock_guard<std::mutex> guard(mutex_);
        if (block->state == BlockHeader::kStateAllocated) {
          // The pop (or bump) completed but the owner never published:
          // roll the allocation back.
          FreeBlockLocked(off);
        } else if (m->free_heads[cls] != off) {
          // The crash hit between the head advance and the
          // allocated-mark: the block is off-list but still marked free.
          // Relink it.
          block->next = m->free_heads[cls];
          region_.Persist(&block->next, sizeof(block->next));
          region_.AtomicPersist64(&m->free_heads[cls], off);
        }
        // Otherwise (state free, still at head): the pop never took
        // durable effect; nothing to do.
      }
    }
    // off >= heap_top means the bump never completed: nothing allocated.
    region_.AtomicPersist64(&intent.state, kIntentFree);
  }
  return Status::OK();
}

Result<uint32_t> PAllocator::ReserveIntentSlot() {
  for (uint32_t i = 0; i < kMaxIntents; ++i) {
    if ((intent_busy_bitmap_ & (uint64_t{1} << i)) == 0) {
      intent_busy_bitmap_ |= (uint64_t{1} << i);
      return i;
    }
  }
  return Status::OutOfMemory("all allocation intent slots busy");
}

Result<uint64_t> PAllocator::AllocLocked(uint64_t size,
                                         uint32_t intent_slot) {
  HYRISE_NV_ASSIGN_OR_RETURN(const size_t cls, ClassFor(size));
  auto* m = meta();
  auto* header = HeaderOf(region_);
  const bool with_intent = intent_slot != UINT32_MAX;

  const uint64_t head = m->free_heads[cls];
  if (head != 0) {
    // Free-list pop. Ordering: (1) record intent, (2) advance head,
    // (3) mark allocated. A crash between (2) and (3) merely leaks the
    // block for intent-free allocations (it is off-list and still marked
    // free — no later pop can return it); intent-protected allocations
    // are rolled back or relinked by Recover(). The head must advance
    // *before* the allocated-mark, or a crash in between would leave the
    // durable head pointing at an allocated block — corruption for the
    // next pop.
    auto* block = BlockAt(region_, head);
    if (block->magic != BlockHeader::kMagicValue ||
        block->state != BlockHeader::kStateFree) {
      return Status::Corruption("free list head is not a free block");
    }
    if (with_intent) {
      auto& intent = header->intents[intent_slot];
      intent.offset = head;
      region_.Persist(&intent.offset, sizeof(intent.offset));
      region_.AtomicPersist64(&intent.state, kIntentPending);
    }
    region_.AtomicPersist64(&m->free_heads[cls], block->next);
    region_.AtomicPersist64(&block->state, BlockHeader::kStateAllocated);
#if HYRISE_NV_METRICS_ENABLED
    static obs::Counter& freelist_reuse =
        obs::MetricsRegistry::Instance().GetCounter(
            "alloc.freelist_reuse.count");
    freelist_reuse.Inc();
    NoteAllocated(ClassSize(cls));
#endif
    return head + sizeof(BlockHeader);
  }

  // Bump allocation. Ordering: (1) record intent at the future block
  // offset, (2) write + persist the block header, (3) advance heap_top.
  // A crash before (3) allocated nothing (intent offset >= heap_top).
  const uint64_t block_off = AlignUp(m->heap_top, kBlockAlign);
  const uint64_t new_top =
      block_off + sizeof(BlockHeader) + ClassSize(cls);
  if (new_top > m->heap_end) {
    return Status::OutOfMemory(
        "NVM region exhausted: need " + std::to_string(size) +
        " bytes, heap_top=" + std::to_string(m->heap_top) +
        ", end=" + std::to_string(m->heap_end));
  }
  if (with_intent) {
    auto& intent = header->intents[intent_slot];
    intent.offset = block_off;
    region_.Persist(&intent.offset, sizeof(intent.offset));
    region_.AtomicPersist64(&intent.state, kIntentPending);
  }
  auto* block = BlockAt(region_, block_off);
  block->size = ClassSize(cls);
  block->state = BlockHeader::kStateAllocated;
  block->next = 0;
  block->magic = BlockHeader::kMagicValue;
  region_.Persist(block, sizeof(BlockHeader));
  region_.AtomicPersist64(&m->heap_top, new_top);
#if HYRISE_NV_METRICS_ENABLED
  NoteAllocated(ClassSize(cls));
#endif
  return block_off + sizeof(BlockHeader);
}

Result<uint64_t> PAllocator::Alloc(uint64_t size) {
  std::lock_guard<std::mutex> guard(mutex_);
  return AllocLocked(size, UINT32_MAX);
}

Result<uint64_t> PAllocator::AllocWithIntent(uint64_t size,
                                             IntentHandle* handle) {
  std::lock_guard<std::mutex> guard(mutex_);
  HYRISE_NV_ASSIGN_OR_RETURN(const uint32_t slot, ReserveIntentSlot());
  auto result = AllocLocked(size, slot);
  if (!result.ok()) {
    intent_busy_bitmap_ &= ~(uint64_t{1} << slot);
    return result.status();
  }
  handle->slot = slot;
  return result;
}

void PAllocator::CommitIntent(IntentHandle handle) {
  if (!handle.valid()) return;
  std::lock_guard<std::mutex> guard(mutex_);
  auto& intent = HeaderOf(region_)->intents[handle.slot];
  region_.AtomicPersist64(&intent.state, kIntentFree);
  intent_busy_bitmap_ &= ~(uint64_t{1} << handle.slot);
}

void PAllocator::AbortIntent(IntentHandle handle) {
  if (!handle.valid()) return;
  std::lock_guard<std::mutex> guard(mutex_);
  auto& intent = HeaderOf(region_)->intents[handle.slot];
  if (intent.state == kIntentPending && intent.offset != 0) {
    FreeBlockLocked(intent.offset);
  }
  region_.AtomicPersist64(&intent.state, kIntentFree);
  intent_busy_bitmap_ &= ~(uint64_t{1} << handle.slot);
}

void PAllocator::FreeBlockLocked(uint64_t block_offset) {
  auto* m = meta();
  auto* block = BlockAt(region_, block_offset);
  HYRISE_NV_CHECK(block->magic == BlockHeader::kMagicValue,
                  "freeing a non-block");
  auto cls_result = ClassFor(block->size);
  HYRISE_NV_CHECK(cls_result.ok(), "freeing block with invalid size");
  const size_t cls = cls_result.ValueUnsafe();
  // Ordering: link the block to the current head, persist, then swing the
  // head. A crash between the two leaks the block (documented); it never
  // corrupts the list.
  block->next = m->free_heads[cls];
  block->state = BlockHeader::kStateFree;
  region_.Persist(block, sizeof(BlockHeader));
  region_.AtomicPersist64(&m->free_heads[cls], block_offset);
#if HYRISE_NV_METRICS_ENABLED
  static obs::Counter& free_count =
      obs::MetricsRegistry::Instance().GetCounter("alloc.free.count");
  static obs::Gauge& bytes_in_use =
      obs::MetricsRegistry::Instance().GetGauge("alloc.bytes_in_use");
  free_count.Inc();
  bytes_in_use.Add(-static_cast<int64_t>(ClassSize(cls)));
#endif
}

Status PAllocator::Free(uint64_t payload_offset) {
  if (payload_offset < HeapBeginOffset() + sizeof(BlockHeader) ||
      payload_offset >= region_.size()) {
    return Status::InvalidArgument("offset outside heap");
  }
  const uint64_t block_off = payload_offset - sizeof(BlockHeader);
  // Blocks are kBlockAlign-aligned; a misaligned offset can never name a
  // block (and must not be dereferenced as one).
  if (block_off % kBlockAlign != 0) {
    return Status::InvalidArgument("misaligned offset");
  }
  std::lock_guard<std::mutex> guard(mutex_);
  auto* block = BlockAt(region_, block_off);
  if (block->magic != BlockHeader::kMagicValue) {
    return Status::Corruption("free of non-allocated offset");
  }
  if (block->state != BlockHeader::kStateAllocated) {
    return Status::InvalidArgument("double free");
  }
  FreeBlockLocked(block_off);
  return Status::OK();
}

void PAllocator::FreeDeferred(uint64_t payload_offset) {
  const uint64_t tag = epochs_.RetireTag();
  {
    std::lock_guard<std::mutex> guard(deferred_mutex_);
    deferred_.push_back(DeferredFree{payload_offset, tag});
  }
  ReclaimDeferred();
}

void PAllocator::ReclaimDeferred() {
  std::vector<uint64_t> ready;
  {
    std::lock_guard<std::mutex> guard(deferred_mutex_);
    size_t kept = 0;
    for (const DeferredFree& d : deferred_) {
      if (epochs_.Reclaimable(d.tag)) {
        ready.push_back(d.offset);
      } else {
        deferred_[kept++] = d;
      }
    }
    deferred_.resize(kept);
  }
  // Best-effort like the immediate free it replaces: a failure here can
  // only leak the block.
  for (uint64_t offset : ready) (void)Free(offset);
}

Result<uint64_t> PAllocator::AllocSize(uint64_t payload_offset) const {
  if (payload_offset < HeapBeginOffset() + sizeof(BlockHeader) ||
      payload_offset >= region_.size()) {
    return Status::InvalidArgument("offset outside heap");
  }
  if ((payload_offset - sizeof(BlockHeader)) % kBlockAlign != 0) {
    return Status::InvalidArgument("misaligned offset");
  }
  const auto* block = BlockAt(region_, payload_offset - sizeof(BlockHeader));
  if (block->magic != BlockHeader::kMagicValue) {
    return Status::Corruption("not an allocation");
  }
  return block->size;
}

uint64_t PAllocator::HeapUsedBytes() const {
  return meta()->heap_top - HeapBeginOffset();
}

}  // namespace hyrise_nv::alloc
