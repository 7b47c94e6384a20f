#ifndef HYRISE_NV_STORAGE_TABLE_H_
#define HYRISE_NV_STORAGE_TABLE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "alloc/pheap.h"
#include "common/status.h"
#include "storage/delta_partition.h"
#include "storage/layout.h"
#include "storage/main_partition.h"
#include "storage/mvcc.h"
#include "storage/schema.h"
#include "storage/types.h"

namespace hyrise_nv::storage {

/// A Hyrise-style table: immutable dictionary-compressed main partition +
/// append-only delta partition + per-row MVCC metadata, all resident on
/// the persistent heap.
///
/// The Table object is a volatile handle; every byte of state lives on
/// NVM. Attach() rebinds after restart. Thread safety: concurrent readers
/// and a single writer per table at a time — writers from different
/// threads serialise on write_mutex() (Database::Insert holds it across
/// the delta append, index maintenance, and WAL logging; MVCC stamps and
/// claims take it too, because appends may move the MVCC buffer); scans
/// are safe against concurrent appends because row visibility gates on
/// the MVCC vector, which grows strictly after row payloads are in place,
/// and because buffers replaced by a growth outlive every reader that
/// pinned reader_epochs() before the swap.
class Table {
 public:
  /// Allocates and formats a fresh table (meta + group + schema blob) on
  /// the heap. Returns the PTableMeta offset for the catalog.
  /// `publish_intent` protects the whole object tree: the caller must
  /// CommitIntent after persisting a reachable reference to the returned
  /// offset (the catalog append), or the structures are reclaimed on
  /// recovery.
  static Result<uint64_t> Create(alloc::PHeap& heap, const std::string& name,
                                 uint64_t table_id, const Schema& schema,
                                 alloc::IntentHandle* publish_intent);

  /// Binds a handle to an existing table.
  static Result<std::unique_ptr<Table>> Attach(alloc::PHeap& heap,
                                               uint64_t meta_offset);

  const std::string& name() const { return name_; }
  uint64_t id() const { return meta_->table_id; }
  const Schema& schema() const { return schema_; }
  uint64_t meta_offset() const { return meta_offset_; }

  uint64_t main_row_count() const { return main_.row_count(); }
  uint64_t delta_row_count() const { return delta_.row_count(); }

  MainPartition& main() { return main_; }
  const MainPartition& main() const { return main_; }
  DeltaPartition& delta() { return delta_; }
  const DeltaPartition& delta() const { return delta_; }

  PTableMeta* meta() { return meta_; }
  PTableGroup* group() { return group_; }
  alloc::PHeap& heap() { return *heap_; }

  /// Appends a new row owned by `tid` to the delta. Returns its location.
  Result<RowLocation> AppendRow(const std::vector<Value>& row, Tid tid);

  /// Appends a dictionary-encoded row (log replay path).
  Result<RowLocation> AppendEncodedRow(const std::vector<ValueId>& ids,
                                       Tid tid) {
    auto row_result = delta_.AppendEncodedRow(ids, tid);
    if (!row_result.ok()) return row_result.status();
    return RowLocation{false, *row_result};
  }

  /// Appends placeholder delta rows with final MVCC state; the on-demand
  /// recovery driver fills in the values later.
  Status ReservePlaceholderRows(const std::vector<MvccEntry>& entries) {
    return delta_.ReservePlaceholderRows(entries);
  }

  /// MVCC entry of a row.
  MvccEntry* mvcc(RowLocation loc) {
    return loc.in_main ? main_.mvcc(loc.row) : delta_.mvcc(loc.row);
  }
  const MvccEntry* mvcc(RowLocation loc) const {
    return loc.in_main ? main_.mvcc(loc.row) : delta_.mvcc(loc.row);
  }

  /// Reads one cell (decoding through the partition dictionary).
  Value GetValue(RowLocation loc, size_t column) const;

  /// Materialises a full row.
  std::vector<Value> GetRow(RowLocation loc) const;

  /// Calls `fn(RowLocation)` for every row visible to (snapshot, tid), in
  /// main-then-delta order.
  template <typename Fn>
  void ForEachVisibleRow(Cid snapshot, Tid tid, Fn&& fn) const {
    alloc::ReaderEpochs::Guard guard(reader_epochs());
    const uint64_t main_rows = main_.row_count();
    for (uint64_t r = 0; r < main_rows; ++r) {
      if (IsVisible(*main_.mvcc(r), snapshot, tid)) {
        fn(RowLocation{true, r});
      }
    }
    const uint64_t delta_rows = delta_.row_count();
    for (uint64_t r = 0; r < delta_rows; ++r) {
      if (IsVisible(*delta_.mvcc(r), snapshot, tid)) {
        fn(RowLocation{false, r});
      }
    }
  }

  /// Number of rows visible to (snapshot, tid).
  uint64_t CountVisible(Cid snapshot, Tid tid) const;

  /// Post-crash repair: truncates torn inserts and finishes torn
  /// dictionary publishes. Cost is O(delta columns), not O(data).
  Status RepairAfterCrash() { return delta_.RepairTornInserts(); }

  /// Rebinds the handle to the current group (after a merge swap).
  Status ReattachGroup();

  /// Serialises writers appending to this table (delta append + index
  /// maintenance + dictionary-encoded logging share the structures this
  /// guards). Volatile — never part of the NVM image.
  std::mutex& write_mutex() { return write_mutex_; }

  /// Readers that race writers (scans, cell reads) pin these while they
  /// dereference this table's vectors; see alloc::ReaderEpochs.
  alloc::ReaderEpochs& reader_epochs() const {
    return heap_->allocator().reader_epochs();
  }

 private:
  Table(alloc::PHeap& heap, uint64_t meta_offset)
      : heap_(&heap), meta_offset_(meta_offset) {}

  Status BindHandles();

  alloc::PHeap* heap_;
  uint64_t meta_offset_;
  PTableMeta* meta_ = nullptr;
  PTableGroup* group_ = nullptr;
  std::string name_;
  Schema schema_;
  MainPartition main_;
  DeltaPartition delta_;
  std::mutex write_mutex_;
};

}  // namespace hyrise_nv::storage

#endif  // HYRISE_NV_STORAGE_TABLE_H_
