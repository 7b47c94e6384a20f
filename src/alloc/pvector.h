#ifndef HYRISE_NV_ALLOC_PVECTOR_H_
#define HYRISE_NV_ALLOC_PVECTOR_H_

#include <cstring>
#include <type_traits>

#include "alloc/pallocator.h"
#include "common/macros.h"
#include "common/status.h"

namespace hyrise_nv::alloc {

/// On-NVM descriptor of a persistent dynamic array. Lives inline in the
/// owning structure at a stable offset; the payload buffer is allocated
/// from the persistent heap and republished on growth through an A/B slot
/// flip, so a crash at any point exposes either the old or the new buffer,
/// never a torn descriptor.
struct PVectorDesc {
  struct Slot {
    uint64_t data;      // payload offset of the element buffer (0 = none)
    uint64_t capacity;  // element capacity of that buffer
  };
  uint64_t version;  // active slot = version & 1; bumped atomically
  Slot slots[2];
  uint64_t size;  // committed element count; bumped atomically after data
  /// Seal tag over the fields above, written by the clean-shutdown walk
  /// (see recovery/verify.h). 0 = unsealed; mutations leave it stale,
  /// which is safe because the region is marked dirty first and seals are
  /// only authoritative after a clean shutdown.
  uint64_t seal;
};
static_assert(sizeof(PVectorDesc) == 56, "descriptor layout");

/// Typed handle over a PVectorDesc. The handle itself is volatile; all
/// state lives on NVM. Elements must be trivially copyable (they are
/// memcpy'd during growth and after restart no constructors rerun).
///
/// Persistence contract: after Append/Set/BulkAppend return, the new
/// contents and size are durable. A crash mid-call leaves the previous
/// committed state.
template <typename T>
class PVector {
 public:
  static_assert(std::is_trivially_copyable_v<T>,
                "PVector elements must be trivially copyable");

  PVector() = default;
  PVector(nvm::PmemRegion* region, PAllocator* alloc, PVectorDesc* desc)
      : region_(region), alloc_(alloc), desc_(desc) {}

  /// Initialises a zeroed descriptor for a fresh vector.
  static void Format(nvm::PmemRegion& region, PVectorDesc* desc) {
    std::memset(desc, 0, sizeof(PVectorDesc));
    region.Persist(desc, sizeof(PVectorDesc));
  }

  /// Re-attaches after restart; validates the descriptor.
  Status Validate() const {
    const auto& slot = ActiveSlot();
    if (desc_->size > slot.capacity) {
      return Status::Corruption("PVector size exceeds capacity");
    }
    if (slot.capacity > 0) {
      const uint64_t end = slot.data + slot.capacity * sizeof(T);
      if (slot.data < PAllocator::HeapBegin() || end > region_->size()) {
        return Status::Corruption("PVector buffer out of range");
      }
    }
    return Status::OK();
  }

  /// Committed size. Acquire: elements below it are fully written.
  uint64_t size() const {
    return __atomic_load_n(&desc_->size, __ATOMIC_ACQUIRE);
  }
  bool empty() const { return size() == 0; }
  uint64_t capacity() const { return ActiveSlot().capacity; }
  nvm::PmemRegion* region() const { return region_; }

  /// The active buffer. Lock-free readers may race a growth: they see
  /// the old or the new buffer, both holding every committed element,
  /// and the old one stays allocated until their ReaderEpochs guard ends.
  T* data() { return reinterpret_cast<T*>(ActiveData()); }
  const T* data() const {
    return reinterpret_cast<const T*>(ActiveData());
  }

  const T& Get(uint64_t index) const {
    HYRISE_NV_DCHECK(index < size(), "PVector index out of range");
    return data()[index];
  }

  /// Overwrites an existing element and persists it.
  void Set(uint64_t index, const T& value) {
    HYRISE_NV_DCHECK(index < desc_->size, "PVector index out of range");
    T* slot = data() + index;
    *slot = value;
    region_->Persist(slot, sizeof(T));
  }

  /// Overwrites without persisting (caller batches a PersistRange).
  void SetUnpersisted(uint64_t index, const T& value) {
    HYRISE_NV_DCHECK(index < desc_->size, "PVector index out of range");
    data()[index] = value;
  }

  /// Persists elements [begin, end).
  void PersistRange(uint64_t begin, uint64_t end) {
    if (end <= begin) return;
    region_->Persist(data() + begin, (end - begin) * sizeof(T));
  }

  /// Appends one element durably. Two persist barriers: element, then
  /// size — the size bump is the commit point.
  Status Append(const T& value) {
    HYRISE_NV_RETURN_NOT_OK(EnsureCapacity(desc_->size + 1));
    T* slot = data() + desc_->size;
    *slot = value;
    region_->Persist(slot, sizeof(T));
    region_->AtomicPersist64(&desc_->size, desc_->size + 1);
    return Status::OK();
  }

  /// Appends one element with flushes but *no fence* (models CLWB without
  /// SFENCE). The caller must issue a region Fence before any dependent
  /// durable publication. Safe only for vectors whose committed length is
  /// bounded by another structure that recovery trusts instead (delta
  /// attribute/dictionary vectors, truncated to the MVCC row count) —
  /// without the fence, the size line may persist before the element
  /// line, so the trailing entries are garbage until the caller's fence.
  Status AppendUnfenced(const T& value) {
    HYRISE_NV_RETURN_NOT_OK(StageAppend(value));
    CommitStaged(1);
    return Status::OK();
  }

  /// Writes `value` just past the committed size and flushes it, without
  /// fencing or bumping the size: the first step of a caller-ordered
  /// append (write, Fence, CommitStaged, Fence). Readers ignore it until
  /// the size covers it. `value` is a copy because a growth here may
  /// move the buffer it was read from.
  Status StageAppend(T value) {
    HYRISE_NV_RETURN_NOT_OK(EnsureCapacity(desc_->size + 1));
    T* slot = data() + desc_->size;
    *slot = value;
    region_->Flush(slot, sizeof(T));
    return Status::OK();
  }

  /// Bumps the size over `count` staged elements (release store + flush,
  /// no fence). The caller fences before anything that depends on it.
  void CommitStaged(uint64_t count) {
    __atomic_store_n(&desc_->size, desc_->size + count, __ATOMIC_RELEASE);
    region_->Flush(&desc_->size, sizeof(desc_->size));
  }

  /// BulkAppend without a fence: content and size are flushed, and the
  /// caller's next fence makes both durable. Only for vectors whose tail
  /// is referenced through another, fenced structure (the string blob,
  /// referenced by dictionary values), so a size persisted ahead of its
  /// bytes exposes nothing.
  Status BulkAppendUnfenced(const T* values, uint64_t count) {
    if (count == 0) return Status::OK();
    HYRISE_NV_RETURN_NOT_OK(EnsureCapacity(desc_->size + count));
    std::memcpy(data() + desc_->size, values, count * sizeof(T));
    region_->Flush(data() + desc_->size, count * sizeof(T));
    CommitStaged(count);
    return Status::OK();
  }

  /// Replaces the whole content with `count` elements in a fresh buffer
  /// of `capacity` (>= count), published by one slot flip: a concurrent
  /// reader sees the old or the new content, never a mix, and the old
  /// buffer is freed deferred. The size follows the flip, so a crash in
  /// between leaves the new buffer with the old size (the owner
  /// re-derives it after a crash).
  Status Replace(const T* values, uint64_t count, uint64_t capacity) {
    HYRISE_NV_DCHECK(count <= capacity, "replace beyond capacity");
    HYRISE_NV_RETURN_NOT_OK(PublishBuffer(capacity, values, count));
    region_->AtomicPersist64(&desc_->size, count);
    return Status::OK();
  }

  /// Appends `count` elements with a single range persist and one size
  /// bump. The bulk path used by merge and checkpoint loading.
  Status BulkAppend(const T* values, uint64_t count) {
    if (count == 0) return Status::OK();
    HYRISE_NV_RETURN_NOT_OK(EnsureCapacity(desc_->size + count));
    std::memcpy(data() + desc_->size, values, count * sizeof(T));
    region_->Persist(data() + desc_->size, count * sizeof(T));
    region_->AtomicPersist64(&desc_->size, desc_->size + count);
    return Status::OK();
  }

  /// Appends `count` copies of `value` (e.g. kCidInfinity MVCC columns).
  Status AppendFill(const T& value, uint64_t count) {
    if (count == 0) return Status::OK();
    HYRISE_NV_RETURN_NOT_OK(EnsureCapacity(desc_->size + count));
    T* base = data() + desc_->size;
    for (uint64_t i = 0; i < count; ++i) base[i] = value;
    region_->Persist(base, count * sizeof(T));
    region_->AtomicPersist64(&desc_->size, desc_->size + count);
    return Status::OK();
  }

  /// Pre-grows the buffer to hold at least `n` elements.
  Status Reserve(uint64_t n) { return EnsureCapacity(n); }

  /// Sets the committed size to `n` (<= capacity) when recovery
  /// re-derives it from the structure that owns the vector.
  void RecoverSize(uint64_t n) {
    HYRISE_NV_DCHECK(n <= capacity(), "size beyond capacity");
    region_->AtomicPersist64(&desc_->size, n);
  }

  /// Truncates the committed size (used by recovery rollback). Does not
  /// shrink the buffer.
  void TruncateTo(uint64_t n) {
    HYRISE_NV_DCHECK(n <= desc_->size, "truncate cannot grow");
    region_->AtomicPersist64(&desc_->size, n);
  }

 private:
  const PVectorDesc::Slot& ActiveSlot() const {
    return desc_->slots[__atomic_load_n(&desc_->version, __ATOMIC_ACQUIRE) &
                        1];
  }

  uint8_t* ActiveData() const {
    const uint64_t off =
        __atomic_load_n(&ActiveSlot().data, __ATOMIC_RELAXED);
    return off == 0 ? nullptr : region_->base() + off;
  }

  Status EnsureCapacity(uint64_t needed) {
    const auto& active = ActiveSlot();
    if (needed <= active.capacity) return Status::OK();
    uint64_t new_cap = active.capacity == 0 ? 16 : active.capacity * 2;
    while (new_cap < needed) new_cap *= 2;
    return PublishBuffer(new_cap, data(), desc_->size);
  }

  /// Copies `count` elements from `src` into a fresh buffer of `new_cap`
  /// and makes it the active one.
  Status PublishBuffer(uint64_t new_cap, const T* src, uint64_t count) {
    IntentHandle intent;
    auto alloc_result =
        alloc_->AllocWithIntent(new_cap * sizeof(T), &intent);
    if (!alloc_result.ok()) return alloc_result.status();
    const uint64_t new_data = alloc_result.ValueUnsafe();

    T* new_buf = reinterpret_cast<T*>(region_->base() + new_data);
    const uint64_t old_data = ActiveSlot().data;
    if (count > 0) {
      std::memcpy(new_buf, src, count * sizeof(T));
      region_->Persist(new_buf, count * sizeof(T));
    }
    // Publish through the inactive slot, then flip the version: the flip
    // is the single atomic commit point. The intent is retired just
    // before it — a crash in between leaks the new buffer, whereas
    // retiring after the flip would let recovery free a published one.
    auto& inactive = desc_->slots[(desc_->version + 1) & 1];
    __atomic_store_n(&inactive.data, new_data, __ATOMIC_RELAXED);
    __atomic_store_n(&inactive.capacity, new_cap, __ATOMIC_RELAXED);
    region_->Persist(&inactive, sizeof(inactive));
    alloc_->CommitIntent(intent);
    region_->AtomicPersist64(&desc_->version, desc_->version + 1);
    if (old_data != 0) {
      // Lock-free readers may still hold the old buffer; a crash before
      // the deferred free runs leaks it.
      alloc_->FreeDeferred(old_data);
    }
    return Status::OK();
  }

  nvm::PmemRegion* region_ = nullptr;
  PAllocator* alloc_ = nullptr;
  PVectorDesc* desc_ = nullptr;
};

}  // namespace hyrise_nv::alloc

#endif  // HYRISE_NV_ALLOC_PVECTOR_H_
