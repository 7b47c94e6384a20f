#include "storage/table.h"

#include <cstring>

namespace hyrise_nv::storage {

Result<uint64_t> Table::Create(alloc::PHeap& heap, const std::string& name,
                               uint64_t table_id, const Schema& schema,
                               alloc::IntentHandle* publish_intent) {
  if (name.empty() || name.size() >= PTableMeta::kMaxNameLen) {
    return Status::InvalidArgument("table name length out of range");
  }
  if (schema.num_columns() == 0) {
    return Status::InvalidArgument("table needs at least one column");
  }
  auto& region = heap.region();
  auto& alloc = heap.allocator();

  // Schema blob.
  const std::vector<uint8_t> schema_bytes = schema.Serialize();
  alloc::IntentHandle schema_intent;
  auto schema_off_result =
      alloc.AllocWithIntent(schema_bytes.size(), &schema_intent);
  if (!schema_off_result.ok()) return schema_off_result.status();
  const uint64_t schema_off = *schema_off_result;
  std::memcpy(region.base() + schema_off, schema_bytes.data(),
              schema_bytes.size());
  region.Persist(region.base() + schema_off, schema_bytes.size());

  // Group.
  const uint64_t ncols = schema.num_columns();
  alloc::IntentHandle group_intent;
  auto group_off_result =
      alloc.AllocWithIntent(PTableGroup::ByteSize(ncols), &group_intent);
  if (!group_off_result.ok()) {
    alloc.AbortIntent(schema_intent);
    return group_off_result.status();
  }
  const uint64_t group_off = *group_off_result;
  auto* group = heap.Resolve<PTableGroup>(group_off);
  std::memset(group, 0, PTableGroup::ByteSize(ncols));
  MainPartition::Format(region, group, ncols);
  DeltaPartition::Format(region, group, ncols);
  region.Persist(group, PTableGroup::ByteSize(ncols));

  // Meta (publishing it in the catalog is the caller's last step; the
  // intents cover us until then).
  alloc::IntentHandle meta_intent;
  auto meta_off_result =
      alloc.AllocWithIntent(sizeof(PTableMeta), &meta_intent);
  if (!meta_off_result.ok()) {
    alloc.AbortIntent(schema_intent);
    alloc.AbortIntent(group_intent);
    return meta_off_result.status();
  }
  const uint64_t meta_off = *meta_off_result;
  auto* meta = heap.Resolve<PTableMeta>(meta_off);
  std::memset(meta, 0, sizeof(PTableMeta));
  std::memcpy(meta->name, name.data(), name.size());
  meta->table_id = table_id;
  meta->num_columns = ncols;
  meta->schema_off = schema_off;
  meta->schema_len = schema_bytes.size();
  meta->group_off = group_off;
  region.Persist(meta, sizeof(PTableMeta));

  // Schema and group are referenced by the meta block; the meta block
  // itself stays intent-protected until the caller publishes it in the
  // catalog. (If a crash reclaims the meta, the schema and group blocks
  // leak — a bounded, DDL-only window; see DESIGN.md §8.)
  alloc.CommitIntent(schema_intent);
  alloc.CommitIntent(group_intent);
  *publish_intent = meta_intent;
  return meta_off;
}

Result<std::unique_ptr<Table>> Table::Attach(alloc::PHeap& heap,
                                             uint64_t meta_offset) {
  if (meta_offset == 0 || meta_offset >= heap.region().size()) {
    return Status::InvalidArgument("table meta offset out of range");
  }
  auto table = std::unique_ptr<Table>(new Table(heap, meta_offset));
  HYRISE_NV_RETURN_NOT_OK(table->BindHandles());
  return table;
}

Status Table::BindHandles() {
  meta_ = heap_->Resolve<PTableMeta>(meta_offset_);
  if (std::memchr(meta_->name, '\0', PTableMeta::kMaxNameLen) == nullptr) {
    return Status::Corruption("table name not terminated");
  }
  name_ = meta_->name;
  if (meta_->num_columns == 0 || meta_->num_columns > 4096) {
    return Status::Corruption("implausible column count");
  }
  if (meta_->schema_off == 0 ||
      meta_->schema_off + meta_->schema_len > heap_->region().size()) {
    return Status::Corruption("schema blob out of range");
  }
  auto schema_result = Schema::Deserialize(
      heap_->region().base() + meta_->schema_off, meta_->schema_len);
  if (!schema_result.ok()) return schema_result.status();
  schema_ = std::move(schema_result).ValueUnsafe();
  if (schema_.num_columns() != meta_->num_columns) {
    return Status::Corruption("schema column count mismatch");
  }
  return ReattachGroup();
}

Status Table::ReattachGroup() {
  if (meta_->group_off == 0 ||
      meta_->group_off + PTableGroup::ByteSize(meta_->num_columns) >
          heap_->region().size()) {
    return Status::Corruption("table group out of range");
  }
  group_ = heap_->Resolve<PTableGroup>(meta_->group_off);
  HYRISE_NV_RETURN_NOT_OK(main_.Attach(schema_, &heap_->region(),
                                       &heap_->allocator(), group_));
  return delta_.Attach(schema_, &heap_->region(), &heap_->allocator(),
                       group_);
}

Result<RowLocation> Table::AppendRow(const std::vector<Value>& row,
                                     Tid tid) {
  HYRISE_NV_RETURN_NOT_OK(schema_.CheckRow(row));
  auto row_result = delta_.AppendRow(row, tid);
  if (!row_result.ok()) return row_result.status();
  return RowLocation{false, *row_result};
}

Value Table::GetValue(RowLocation loc, size_t column) const {
  HYRISE_NV_DCHECK(column < schema_.num_columns(), "column out of range");
  // Main vectors never grow; delta ones may move under a concurrent
  // append, so delta reads pin the reader epoch.
  if (loc.in_main) return main_.column(column).GetValue(loc.row);
  alloc::ReaderEpochs::Guard guard(reader_epochs());
  return delta_.column(column).GetValue(loc.row);
}

std::vector<Value> Table::GetRow(RowLocation loc) const {
  std::vector<Value> row;
  row.reserve(schema_.num_columns());
  if (loc.in_main) {
    for (size_t c = 0; c < schema_.num_columns(); ++c) {
      row.push_back(main_.column(c).GetValue(loc.row));
    }
    return row;
  }
  alloc::ReaderEpochs::Guard guard(reader_epochs());
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    row.push_back(delta_.column(c).GetValue(loc.row));
  }
  return row;
}

uint64_t Table::CountVisible(Cid snapshot, Tid tid) const {
  uint64_t count = 0;
  ForEachVisibleRow(snapshot, tid, [&count](RowLocation) { ++count; });
  return count;
}

}  // namespace hyrise_nv::storage
