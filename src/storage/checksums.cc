#include "storage/checksums.h"

#include <cstddef>

#include "alloc/pallocator.h"

namespace hyrise_nv::storage {

namespace {

/// True if the committed content of `desc` lies inside the heap.
bool ContentInBounds(const nvm::PmemRegion& region,
                     const alloc::PVectorDesc& desc, uint64_t elem_size) {
  const auto& slot = desc.slots[desc.version & 1];
  if (desc.size == 0) return true;
  if (slot.data < alloc::PAllocator::HeapBegin()) return false;
  if (desc.size > slot.capacity) return false;
  const uint64_t bytes = desc.size * elem_size;
  if (elem_size != 0 && bytes / elem_size != desc.size) return false;
  return slot.data + bytes >= slot.data &&
         slot.data + bytes <= region.size();
}

}  // namespace

uint32_t CrcOfVectorContent(const nvm::PmemRegion& region,
                            const alloc::PVectorDesc& desc,
                            uint64_t elem_size, uint32_t seed) {
  uint32_t crc = Crc32c(&desc.size, sizeof(desc.size), seed);
  if (desc.size == 0 || !ContentInBounds(region, desc, elem_size)) {
    return crc;
  }
  const auto& slot = desc.slots[desc.version & 1];
  return Crc32c(region.base() + slot.data, desc.size * elem_size, crc);
}

uint64_t ComputePVectorDescSeal(const alloc::PVectorDesc& desc) {
  return SealTag(
      Crc32c(&desc, offsetof(alloc::PVectorDesc, seal)));
}

uint64_t ComputeMainDictSeal(const nvm::PmemRegion& region,
                             const PMainColumnMeta& col) {
  uint32_t crc = CrcOfVectorContent(region, col.dict_values, 8);
  crc = CrcOfVectorContent(region, col.dict_blob, 1, crc);
  return SealTag(crc);
}

uint64_t ComputeMainAttrSeal(const nvm::PmemRegion& region,
                             const PMainColumnMeta& col) {
  uint32_t crc = Crc32c(&col.bits, sizeof(col.bits));
  crc = CrcOfVectorContent(region, col.attr_words, 8, crc);
  return SealTag(crc);
}

uint64_t ComputeMainGkSeal(const nvm::PmemRegion& region,
                           const PMainColumnMeta& col) {
  uint32_t crc = CrcOfVectorContent(region, col.gk_offsets, 8);
  crc = CrcOfVectorContent(region, col.gk_positions, 8, crc);
  return SealTag(crc);
}

uint64_t ComputeDeltaDictSeal(const nvm::PmemRegion& region,
                              const PDeltaColumnMeta& col) {
  uint32_t crc = CrcOfVectorContent(region, col.dict_values, 8);
  crc = CrcOfVectorContent(region, col.dict_blob, 1, crc);
  crc = CrcOfVectorContent(region, col.dict_hash, 4, crc);
  return SealTag(crc);
}

uint64_t ComputeDeltaAttrSeal(const nvm::PmemRegion& region,
                              const PDeltaColumnMeta& col) {
  return SealTag(CrcOfVectorContent(region, col.attr, 4));
}

uint64_t ComputeGroupMvccSeal(const nvm::PmemRegion& region,
                              const PTableGroup& group) {
  uint32_t crc =
      Crc32c(&group.main_row_count, sizeof(group.main_row_count));
  crc = CrcOfVectorContent(region, group.main_mvcc, sizeof(MvccEntry), crc);
  crc =
      CrcOfVectorContent(region, group.delta_mvcc, sizeof(MvccEntry), crc);
  return SealTag(crc);
}

void SealMainColumn(nvm::PmemRegion& region, PMainColumnMeta* col) {
  col->dict_seal = ComputeMainDictSeal(region, *col);
  col->attr_seal = ComputeMainAttrSeal(region, *col);
  region.Persist(&col->dict_seal, sizeof(uint64_t) * 2);
}

void SealMainGroupKey(nvm::PmemRegion& region, PMainColumnMeta* col) {
  col->gk_seal = ComputeMainGkSeal(region, *col);
  region.Persist(&col->gk_seal, sizeof(col->gk_seal));
}

}  // namespace hyrise_nv::storage
