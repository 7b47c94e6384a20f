#ifndef HYRISE_NV_INDEX_PSKIPLIST_H_
#define HYRISE_NV_INDEX_PSKIPLIST_H_

#include <cstdint>

#include "alloc/pheap.h"
#include "alloc/pvector.h"
#include "common/random.h"
#include "common/status.h"
#include "storage/layout.h"
#include "storage/types.h"

namespace hyrise_nv::index {

using storage::kSkipListMaxHeight;
using storage::PSkipNode;

/// Ordered persistent index over one delta column (the paper's
/// "multi-version tree structure on NVM": ordered, durable in place,
/// usable immediately after restart with no rebuild).
///
/// Crash consistency: a node is fully written and persisted before it is
/// published by a single atomic persist of the level-0 predecessor link.
/// Upper-level links follow best-effort — a crash may leave a node
/// reachable only at lower levels, which affects search constants, never
/// correctness (searches always terminate through level 0).
///
/// Attach does O(1) work (head and blob descriptor); it does not walk the
/// list. Instead every hop of a search, scan or insert checks the node it
/// is about to read (offset inside the heap, height 1..kSkipListMaxHeight),
/// so a corrupt link ends the walk with Corruption and no out-of-range
/// node is ever read. The full walk (cycles included) is DeepVerify's.
class PSkipList {
 public:
  PSkipList() = default;
  PSkipList(storage::DataType type, alloc::PHeap* heap,
            storage::PIndexMeta* meta);

  /// Formats a fresh skip list (head node + empty blob) into `meta` and
  /// activates the slot.
  static Status Create(storage::DataType type, alloc::PHeap& heap,
                       storage::PIndexMeta* meta, uint64_t column);

  /// Validates the head and the key blob after restart. O(1).
  Status Attach();

  /// Indexes `row` under `value`. Corruption if a link on the search
  /// path is corrupt (nothing is inserted then).
  Status Insert(const storage::Value& value, uint64_t row);

  /// Calls `fn(row)` for every entry with lo <= key <= hi, in key order.
  /// A corrupt link ends the walk with Corruption.
  template <typename Fn>
  Status ForEachInRange(const storage::Value& lo, const storage::Value& hi,
                        Fn&& fn) const {
    uint64_t preds[kSkipListMaxHeight];
    HYRISE_NV_RETURN_NOT_OK(FindPredecessors(lo, preds));
    uint64_t node_off = LoadNext(NodeAt(preds[0]), 0);
    while (node_off != 0) {
      const PSkipNode* node = CheckedNode(node_off);
      if (node == nullptr) return CorruptLink(node_off);
      if (CompareKeyToValue(node->key, hi) > 0) break;
      fn(node->row);
      node_off = LoadNext(node, 0);
    }
    return Status::OK();
  }

  /// Calls `fn(row)` for every entry equal to `value`.
  template <typename Fn>
  Status ForEachEqual(const storage::Value& value, Fn&& fn) const {
    return ForEachInRange(value, value, fn);
  }

  /// Number of entries, by a level-0 walk (stops at a corrupt link).
  uint64_t entry_count() const;
  uint64_t column() const { return meta_->column; }

 private:
  PSkipNode* NodeAt(uint64_t offset) const {
    return reinterpret_cast<PSkipNode*>(heap_->region().base() + offset);
  }

  /// The node at `offset`, or nullptr if it lies outside the heap or has
  /// an impossible height.
  PSkipNode* CheckedNode(uint64_t offset) const;

  static uint64_t LoadNext(const PSkipNode* node, uint32_t level) {
    // Acquire pairs with Insert's publishing AtomicPersist64: the node
    // behind the link is fully written.
    return __atomic_load_n(&node->next[level], __ATOMIC_ACQUIRE);
  }

  static Status CorruptLink(uint64_t offset);

  /// Three-way compare of a stored key against a query value.
  int CompareKeyToValue(uint64_t key, const storage::Value& value) const;

  /// Per level, the offset of the last node whose key is < `value` (the
  /// head if none). Checks every node it reads.
  Status FindPredecessors(const storage::Value& value,
                          uint64_t preds[kSkipListMaxHeight]) const;

  storage::DataType type_ = storage::DataType::kInt64;
  alloc::PHeap* heap_ = nullptr;
  storage::PIndexMeta* meta_ = nullptr;
  alloc::PVector<char> blob_;  // string keys (meta->entries)
  Rng rng_{0x5EEDull};
};

}  // namespace hyrise_nv::index

#endif  // HYRISE_NV_INDEX_PSKIPLIST_H_
