#ifndef HYRISE_NV_STORAGE_LAYOUT_H_
#define HYRISE_NV_STORAGE_LAYOUT_H_

#include <cstddef>
#include <cstdint>

#include "alloc/pvector.h"
#include "storage/types.h"

namespace hyrise_nv::storage {

/// On-NVM metadata of one column's delta partition: unsorted dictionary
/// (values + string blob + value→id hash) and the unencoded value-id
/// vector.
///
/// `dict_hash` is the dictionary's persistent chained hash, one uint32
/// vector laid out as [bucket_count][heads × bucket_count][chain × ids]:
/// heads and chain links are 1-based value ids (0 = end), chain[id] links
/// id to the next-older id of its bucket. Heads and chain share one
/// buffer so a rehash publishes both with a single slot flip (see
/// storage/dictionary.h); the chain ends at the vector's size, and the
/// buffer's capacity bounds it. Empty until the first insert.
struct PDeltaColumnMeta {
  alloc::PVectorDesc dict_values;  // uint64: numeric bits or blob offsets
  alloc::PVectorDesc dict_blob;    // length-prefixed string payloads
  alloc::PVectorDesc attr;         // uint32 value ids, one per delta row
  alloc::PVectorDesc dict_hash;    // uint32 hash: count, heads, chain
  uint64_t dict_seal;  // content seal over the dictionary (0 = none)
  uint64_t attr_seal;  // content seal over attr (0 = none)
};

/// On-NVM metadata of one column's main partition: sorted dictionary and
/// bit-packed attribute vector, plus the group-key index (CSR layout).
struct PMainColumnMeta {
  alloc::PVectorDesc dict_values;  // sorted; uint64 bits or blob offsets
  alloc::PVectorDesc dict_blob;
  alloc::PVectorDesc attr_words;   // bit-packed value ids
  uint64_t bits;                   // width of packed ids
  alloc::PVectorDesc gk_offsets;   // |dict|+1 offsets into gk_positions
  alloc::PVectorDesc gk_positions; // row numbers grouped by value id
  // Content seals written at merge time (the main partition is immutable
  // after merge, so these are valid even after a crash). 0 = unsealed.
  uint64_t dict_seal;  // over dict_values + dict_blob content
  uint64_t attr_seal;  // over bits + attr_words content
  uint64_t gk_seal;    // over gk_offsets + gk_positions content
};

/// Maximum secondary indexes per table.
constexpr uint64_t kMaxIndexesPerTable = 4;

/// Secondary-index kinds.
enum PIndexKind : uint64_t {
  kIndexHash = 0,      // point lookups: persistent chaining hash
  kIndexSkipList = 1,  // ordered lookups: persistent skip list
};

/// Maximum tower height of the persistent skip list.
constexpr uint32_t kSkipListMaxHeight = 12;

/// One NVM-resident skip-list node (see index/pskiplist.h for the
/// operations). `key` holds the encoded numeric value for int64/double
/// columns, or an offset into the index's key blob for string columns.
/// A node is allocated only as tall as its tower (SkipNodeBytes): just
/// next[0..height) exist. Head nodes are full height.
struct PSkipNode {
  uint64_t key;
  uint64_t row;      // delta row number
  uint32_t height;   // tower height, 1..kSkipListMaxHeight
  uint32_t reserved;
  uint64_t next[kSkipListMaxHeight];  // node offsets; 0 = end
};

/// Allocated bytes of a skip-list node of `height` levels.
constexpr uint64_t SkipNodeBytes(uint32_t height) {
  return offsetof(PSkipNode, next) + uint64_t{height} * sizeof(uint64_t);
}

/// On-NVM metadata of one secondary index over the delta partition.
/// kIndexHash: `buckets` holds uint64 heads (1-based positions into
/// `entries`, 0 = empty), `entries` holds DeltaIndexEntry chains.
/// kIndexSkipList: `head_off` is the head node, `entries` doubles as the
/// key blob for string columns. The main-partition side of either kind is
/// the group-key CSR in PMainColumnMeta, rebuilt at merge.
struct PIndexMeta {
  uint64_t state;   // 0 = empty slot, 1 = active
  uint64_t kind;    // PIndexKind
  uint64_t column;  // indexed column
  uint64_t bucket_count;           // hash: power of two
  uint64_t head_off;               // skip list: head node offset
  alloc::PVectorDesc buckets;
  alloc::PVectorDesc entries;
  uint64_t content_seal;  // clean-shutdown seal over index content (0 = none)
};

/// One merge generation of a table: the immutable main partition, the
/// append-only delta partition, both MVCC vectors, and the secondary
/// index structures. Merge builds a complete new group and publishes it
/// with a single atomic pointer swap in PTableMeta, so a crash during
/// merge exposes the old or the new generation, never a mix (this also
/// atomically resets the delta-side indexes).
struct PTableGroup {
  uint64_t main_row_count;
  alloc::PVectorDesc main_mvcc;   // MvccEntry per main row
  alloc::PVectorDesc delta_mvcc;  // MvccEntry per delta row
  uint64_t mvcc_seal;  // clean-shutdown seal over both MVCC vectors
  PIndexMeta indexes[kMaxIndexesPerTable];
  // Trailing arrays: PMainColumnMeta[num_columns] then
  // PDeltaColumnMeta[num_columns].

  static uint64_t ByteSize(uint64_t num_columns) {
    return sizeof(PTableGroup) +
           num_columns * (sizeof(PMainColumnMeta) + sizeof(PDeltaColumnMeta));
  }

  PMainColumnMeta* main_col(uint64_t i) {
    auto* base = reinterpret_cast<uint8_t*>(this) + sizeof(PTableGroup);
    return reinterpret_cast<PMainColumnMeta*>(base) + i;
  }
  PDeltaColumnMeta* delta_col(uint64_t i, uint64_t num_columns) {
    auto* base = reinterpret_cast<uint8_t*>(this) + sizeof(PTableGroup) +
                 num_columns * sizeof(PMainColumnMeta);
    return reinterpret_cast<PDeltaColumnMeta*>(base) + i;
  }
};

/// Per-table root object. `group_off` is the merge swap point.
struct PTableMeta {
  static constexpr size_t kMaxNameLen = 64;
  char name[kMaxNameLen];
  uint64_t table_id;
  uint64_t num_columns;
  uint64_t schema_off;  // serialized Schema blob allocation
  uint64_t schema_len;
  uint64_t group_off;   // current PTableGroup (atomic swap at merge)
};

/// Catalog root object (referenced from the region root table under
/// "catalog"): the list of tables plus the table-id counter.
struct PCatalogMeta {
  uint64_t next_table_id;
  alloc::PVectorDesc table_meta_offsets;  // uint64 offsets of PTableMeta
};

// The persistent transaction-manager state (commit watermark, TID blocks,
// commit slots) is defined in txn/commit_table.h and registered under the
// region root "txn_state".

}  // namespace hyrise_nv::storage

#endif  // HYRISE_NV_STORAGE_LAYOUT_H_
