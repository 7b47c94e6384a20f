#ifndef HYRISE_NV_INDEX_DELTA_INDEX_H_
#define HYRISE_NV_INDEX_DELTA_INDEX_H_

#include <cstdint>
#include <string_view>

#include "alloc/pvector.h"
#include "common/status.h"
#include "storage/layout.h"
#include "storage/types.h"

namespace hyrise_nv::index {

/// Stable 64-bit hash of a value, identical across restarts (the hash is
/// persisted inside index entries). FNV-1a with a splitmix finaliser.
uint64_t HashValue(const storage::Value& value, storage::DataType type);

/// HashValue over the stored forms: the encoded bits of a numeric value,
/// or the bytes of a string.
uint64_t HashNumericBits(uint64_t bits);
uint64_t HashStringBytes(std::string_view text);

/// One chain node of the persistent delta hash index.
struct DeltaIndexEntry {
  uint64_t hash;  // full value hash (collisions re-checked by the reader)
  uint64_t row;   // delta row number
  uint64_t next;  // 1-based position of the next entry; 0 = end
};
static_assert(sizeof(DeltaIndexEntry) == 24, "entry layout");

/// NVM-resident chaining hash index over one column of the delta
/// partition (the multi-version index structure of DESIGN.md §4.3's delta
/// side; the main side is the group-key CSR rebuilt at merge).
///
/// Crash consistency: Insert appends the entry (durable via the entry
/// vector's size bump) and then publishes it with a single atomic persist
/// of the bucket head. A crash in between leaves an orphan entry that no
/// bucket references — harmless, and retired at the next merge.
class DeltaIndex {
 public:
  DeltaIndex() = default;
  DeltaIndex(nvm::PmemRegion* region, alloc::PAllocator* alloc,
             storage::PIndexMeta* meta);

  /// Formats a fresh index over `column` into a free PIndexMeta slot.
  static Status Create(nvm::PmemRegion& region, alloc::PAllocator& alloc,
                       storage::PIndexMeta* meta, uint64_t column,
                       uint64_t bucket_count);

  /// Validates persistent state after restart.
  Status Attach();

  uint64_t column() const { return meta_->column; }
  uint64_t entry_count() const { return entries_.size(); }

  /// Indexes `row` under `hash`.
  Status Insert(uint64_t hash, uint64_t row);

  /// Calls `fn(row)` for every entry whose hash equals `hash`. The caller
  /// re-checks actual value equality and row visibility.
  template <typename Fn>
  void ForEachCandidate(uint64_t hash, Fn&& fn) const {
    const uint64_t bucket = hash & (meta_->bucket_count - 1);
    // Acquire pairs with Insert's head publish: the entry and every older
    // one on its chain are fully written and under the size loaded next.
    uint64_t pos = __atomic_load_n(buckets_.data() + bucket,
                                   __ATOMIC_ACQUIRE);  // 1-based
    const uint64_t size = entries_.size();
    const DeltaIndexEntry* entries = entries_.data();
    while (pos != 0 && pos <= size) {
      const DeltaIndexEntry& entry = entries[pos - 1];
      if (entry.hash == hash) fn(entry.row);
      pos = entry.next;
    }
  }

 private:
  nvm::PmemRegion* region_ = nullptr;
  storage::PIndexMeta* meta_ = nullptr;
  alloc::PVector<uint64_t> buckets_;
  alloc::PVector<DeltaIndexEntry> entries_;
};

}  // namespace hyrise_nv::index

#endif  // HYRISE_NV_INDEX_DELTA_INDEX_H_
