#include "index/pskiplist.h"

#include <cstring>
#include <string>

#include "storage/dictionary.h"

namespace hyrise_nv::index {

using storage::DataType;
using storage::Value;

PSkipList::PSkipList(DataType type, alloc::PHeap* heap,
                     storage::PIndexMeta* meta)
    : type_(type),
      heap_(heap),
      meta_(meta),
      blob_(&heap->region(), &heap->allocator(), &meta->entries) {}

Status PSkipList::Create(DataType type, alloc::PHeap& heap,
                         storage::PIndexMeta* meta, uint64_t column) {
  if (meta->state != 0) {
    return Status::AlreadyExists("index slot already active");
  }
  meta->kind = storage::kIndexSkipList;
  meta->column = column;
  meta->bucket_count = 0;
  alloc::PVector<uint64_t>::Format(heap.region(), &meta->buckets);
  alloc::PVector<char>::Format(heap.region(), &meta->entries);

  alloc::IntentHandle intent;
  auto head_result =
      heap.allocator().AllocWithIntent(sizeof(PSkipNode), &intent);
  if (!head_result.ok()) return head_result.status();
  auto* head = heap.Resolve<PSkipNode>(*head_result);
  std::memset(head, 0, sizeof(PSkipNode));
  head->height = kSkipListMaxHeight;
  heap.region().Persist(head, sizeof(PSkipNode));
  meta->head_off = *head_result;
  heap.region().Persist(meta, sizeof(storage::PIndexMeta));
  // Activating the slot publishes the head (and retires the intent).
  heap.region().AtomicPersist64(&meta->state, 1);
  heap.allocator().CommitIntent(intent);
  (void)type;
  return Status::OK();
}

Status PSkipList::Attach() {
  if (meta_->state != 1 || meta_->kind != storage::kIndexSkipList) {
    return Status::InvalidArgument("not an active skip-list slot");
  }
  if (meta_->head_off == 0 ||
      meta_->head_off + sizeof(PSkipNode) > heap_->region().size()) {
    return Status::Corruption("skip-list head out of range");
  }
  HYRISE_NV_RETURN_NOT_OK(blob_.Validate());
  const PSkipNode* head = NodeAt(meta_->head_off);
  if (head->height != kSkipListMaxHeight) {
    return Status::Corruption("skip-list head corrupt");
  }
  return Status::OK();
}

PSkipNode* PSkipList::CheckedNode(uint64_t offset) const {
  const uint64_t region_size = heap_->region().size();
  if (offset < alloc::PAllocator::HeapBegin() || offset % 8 != 0 ||
      offset > region_size - storage::SkipNodeBytes(1)) {
    return nullptr;
  }
  PSkipNode* node = NodeAt(offset);
  if (node->height == 0 || node->height > kSkipListMaxHeight ||
      offset > region_size - storage::SkipNodeBytes(node->height)) {
    return nullptr;
  }
  return node;
}

Status PSkipList::CorruptLink(uint64_t offset) {
  return Status::Corruption("skip-list link to invalid node at offset " +
                            std::to_string(offset));
}

uint64_t PSkipList::entry_count() const {
  uint64_t count = 0;
  const uint64_t max_steps = heap_->region().size() / sizeof(PSkipNode);
  const PSkipNode* node = CheckedNode(meta_->head_off);
  for (uint64_t off = node ? LoadNext(node, 0) : 0;
       off != 0 && count < max_steps; off = LoadNext(node, 0)) {
    node = CheckedNode(off);
    if (node == nullptr) break;
    ++count;
  }
  return count;
}

int PSkipList::CompareKeyToValue(uint64_t key, const Value& value) const {
  if (type_ == DataType::kString) {
    const std::string_view stored = storage::BlobRead(blob_, key);
    return stored.compare(std::get<std::string>(value));
  }
  return storage::CompareNumericEncoded(
      type_, key, storage::EncodeNumeric(value, type_));
}

Status PSkipList::FindPredecessors(const Value& value,
                                   uint64_t preds[kSkipListMaxHeight]) const {
  uint64_t node_off = meta_->head_off;
  const PSkipNode* node = CheckedNode(node_off);
  if (node == nullptr) return CorruptLink(node_off);
  for (int level = kSkipListMaxHeight - 1; level >= 0; --level) {
    for (uint64_t next_off = LoadNext(node, level); next_off != 0;
         next_off = LoadNext(node, level)) {
      const PSkipNode* next = CheckedNode(next_off);
      // A node linked at `level` must be taller than it: its next[level]
      // is the next read.
      if (next == nullptr || next->height <= static_cast<uint32_t>(level)) {
        return CorruptLink(next_off);
      }
      if (CompareKeyToValue(next->key, value) >= 0) break;
      node_off = next_off;
      node = next;
    }
    preds[level] = node_off;
  }
  return Status::OK();
}

Status PSkipList::Insert(const Value& value, uint64_t row) {
  uint64_t preds[kSkipListMaxHeight];
  HYRISE_NV_RETURN_NOT_OK(FindPredecessors(value, preds));

  // Encode the key (string keys go into the index's persistent blob).
  uint64_t key;
  if (type_ == DataType::kString) {
    auto off_result =
        storage::BlobAppend(blob_, std::get<std::string>(value));
    if (!off_result.ok()) return off_result.status();
    key = *off_result;
  } else {
    key = storage::EncodeNumeric(value, type_);
  }

  // Random tower height (geometric, p = 1/2).
  uint32_t height = 1;
  while (height < kSkipListMaxHeight && (rng_.Next() & 1) != 0) ++height;

  // Write the node fully, persist it, then publish bottom-up. The
  // level-0 link is the durability point; upper links are best-effort.
  // Only as tall as the tower: most nodes are one or two levels high.
  const uint64_t node_bytes = storage::SkipNodeBytes(height);
  alloc::IntentHandle intent;
  auto alloc_result =
      heap_->allocator().AllocWithIntent(node_bytes, &intent);
  if (!alloc_result.ok()) return alloc_result.status();
  const uint64_t new_off = *alloc_result;
  auto* new_node = heap_->Resolve<PSkipNode>(new_off);
  std::memset(new_node, 0, node_bytes);
  new_node->key = key;
  new_node->row = row;
  new_node->height = height;
  for (uint32_t level = 0; level < height; ++level) {
    new_node->next[level] = NodeAt(preds[level])->next[level];
  }
  heap_->region().Persist(new_node, node_bytes);

  // Intent retired before the publish: a crash in between leaks the node
  // instead of letting recovery free a linked one.
  heap_->allocator().CommitIntent(intent);
  heap_->region().AtomicPersist64(&NodeAt(preds[0])->next[0], new_off);
  for (uint32_t level = 1; level < height; ++level) {
    heap_->region().AtomicPersist64(&NodeAt(preds[level])->next[level],
                                    new_off);
  }
  return Status::OK();
}

}  // namespace hyrise_nv::index
