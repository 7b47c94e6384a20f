#include "wal/checkpoint.h"

#include <cstdio>
#include <cstring>

#include "common/crc32.h"
#include "nvm/nvm_env.h"
#include "storage/layout.h"

namespace hyrise_nv::wal {

namespace {

constexpr uint64_t kCheckpointMagic = 0x48594E5643504B31ull;  // "HYNVCPK1"
constexpr uint32_t kCheckpointVersion = 1;

class ByteWriter {
 public:
  void U32(uint32_t v) { Raw(&v, 4); }
  void U64(uint64_t v) { Raw(&v, 8); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  void Bytes(const std::vector<uint8_t>& b) {
    U64(b.size());
    Raw(b.data(), b.size());
  }
  void Raw(const void* data, size_t len) {
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }
  std::vector<uint8_t>& buffer() { return buf_; }

 private:
  std::vector<uint8_t> buf_;
};

class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}

  Status U32(uint32_t* v) { return Raw(v, 4); }
  Status U64(uint64_t* v) { return Raw(v, 8); }
  Status Str(std::string* s) {
    uint32_t n;
    HYRISE_NV_RETURN_NOT_OK(U32(&n));
    if (pos_ + n > len_) return Err();
    s->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return Status::OK();
  }
  Status Raw(void* out, size_t n) {
    if (pos_ + n > len_) return Err();
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }
  const uint8_t* Peek(size_t n) const {
    if (pos_ + n > len_) return nullptr;
    return data_ + pos_;
  }
  void Skip(size_t n) { pos_ += n; }

 private:
  static Status Err() { return Status::Corruption("checkpoint truncated"); }
  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

template <typename T>
void WritePVector(ByteWriter& w, const alloc::PVector<T>& vec) {
  w.U64(vec.size());
  w.Raw(vec.data(), vec.size() * sizeof(T));
}

template <typename T>
Status ReadPVector(ByteReader& r, alloc::PVector<T>& vec) {
  uint64_t count;
  HYRISE_NV_RETURN_NOT_OK(r.U64(&count));
  if (count == 0) return Status::OK();
  const uint8_t* data = r.Peek(count * sizeof(T));
  if (data == nullptr) {
    return Status::Corruption("checkpoint vector truncated");
  }
  HYRISE_NV_RETURN_NOT_OK(
      vec.BulkAppend(reinterpret_cast<const T*>(data), count));
  r.Skip(count * sizeof(T));
  return Status::OK();
}

void SerializeTable(ByteWriter& w, storage::Table& table) {
  auto& heap = table.heap();
  auto& region = heap.region();
  auto& alloc = heap.allocator();
  storage::PTableGroup* group = table.group();
  const uint64_t ncols = table.schema().num_columns();

  w.Str(table.name());
  w.U64(table.id());
  w.Bytes(table.schema().Serialize());

  uint32_t index_count = 0;
  for (uint64_t s = 0; s < storage::kMaxIndexesPerTable; ++s) {
    if (group->indexes[s].state == 1) ++index_count;
  }
  w.U32(index_count);
  for (uint64_t s = 0; s < storage::kMaxIndexesPerTable; ++s) {
    if (group->indexes[s].state == 1) {
      w.U64(group->indexes[s].column);
      w.U64(group->indexes[s].kind);
    }
  }

  w.U64(table.main_row_count());
  for (uint64_t c = 0; c < ncols; ++c) {
    storage::PMainColumnMeta* col = group->main_col(c);
    w.U64(col->bits);
    alloc::PVector<uint64_t> dict(&region, &alloc, &col->dict_values);
    alloc::PVector<char> blob(&region, &alloc, &col->dict_blob);
    alloc::PVector<uint64_t> words(&region, &alloc, &col->attr_words);
    WritePVector(w, dict);
    WritePVector(w, blob);
    WritePVector(w, words);
  }
  {
    alloc::PVector<storage::MvccEntry> mvcc(&region, &alloc,
                                            &group->main_mvcc);
    WritePVector(w, mvcc);
  }

  for (uint64_t c = 0; c < ncols; ++c) {
    storage::PDeltaColumnMeta* col = group->delta_col(c, ncols);
    alloc::PVector<uint64_t> dict(&region, &alloc, &col->dict_values);
    alloc::PVector<char> blob(&region, &alloc, &col->dict_blob);
    alloc::PVector<uint32_t> attr(&region, &alloc, &col->attr);
    WritePVector(w, dict);
    WritePVector(w, blob);
    WritePVector(w, attr);
  }
  {
    alloc::PVector<storage::MvccEntry> mvcc(&region, &alloc,
                                            &group->delta_mvcc);
    WritePVector(w, mvcc);
  }
}

Status DeserializeTable(ByteReader& r, alloc::PHeap& heap,
                        storage::Catalog& catalog, CheckpointInfo* info) {
  auto& region = heap.region();
  auto& alloc = heap.allocator();

  std::string name;
  uint64_t table_id;
  HYRISE_NV_RETURN_NOT_OK(r.Str(&name));
  HYRISE_NV_RETURN_NOT_OK(r.U64(&table_id));
  uint64_t schema_len;
  HYRISE_NV_RETURN_NOT_OK(r.U64(&schema_len));
  const uint8_t* schema_bytes = r.Peek(schema_len);
  if (schema_bytes == nullptr) {
    return Status::Corruption("checkpoint schema truncated");
  }
  auto schema_result =
      storage::Schema::Deserialize(schema_bytes, schema_len);
  if (!schema_result.ok()) return schema_result.status();
  r.Skip(schema_len);
  const storage::Schema& schema = *schema_result;
  const uint64_t ncols = schema.num_columns();

  auto table_result = catalog.RestoreTable(name, schema, table_id);
  if (!table_result.ok()) return table_result.status();
  storage::Table* table = *table_result;
  storage::PTableGroup* group = table->group();

  uint32_t index_count;
  HYRISE_NV_RETURN_NOT_OK(r.U32(&index_count));
  for (uint32_t i = 0; i < index_count; ++i) {
    uint64_t column, kind;
    HYRISE_NV_RETURN_NOT_OK(r.U64(&column));
    HYRISE_NV_RETURN_NOT_OK(r.U64(&kind));
    info->indexed_columns.push_back({name, column, kind});
  }

  uint64_t main_rows;
  HYRISE_NV_RETURN_NOT_OK(r.U64(&main_rows));
  for (uint64_t c = 0; c < ncols; ++c) {
    storage::PMainColumnMeta* col = group->main_col(c);
    HYRISE_NV_RETURN_NOT_OK(r.U64(&col->bits));
    region.Persist(&col->bits, sizeof(col->bits));
    alloc::PVector<uint64_t> dict(&region, &alloc, &col->dict_values);
    alloc::PVector<char> blob(&region, &alloc, &col->dict_blob);
    alloc::PVector<uint64_t> words(&region, &alloc, &col->attr_words);
    HYRISE_NV_RETURN_NOT_OK(ReadPVector(r, dict));
    HYRISE_NV_RETURN_NOT_OK(ReadPVector(r, blob));
    HYRISE_NV_RETURN_NOT_OK(ReadPVector(r, words));
  }
  {
    alloc::PVector<storage::MvccEntry> mvcc(&region, &alloc,
                                            &group->main_mvcc);
    HYRISE_NV_RETURN_NOT_OK(ReadPVector(r, mvcc));
  }
  group->main_row_count = main_rows;
  region.Persist(&group->main_row_count, sizeof(group->main_row_count));

  for (uint64_t c = 0; c < ncols; ++c) {
    storage::PDeltaColumnMeta* col = group->delta_col(c, ncols);
    alloc::PVector<uint64_t> dict(&region, &alloc, &col->dict_values);
    alloc::PVector<char> blob(&region, &alloc, &col->dict_blob);
    alloc::PVector<uint32_t> attr(&region, &alloc, &col->attr);
    HYRISE_NV_RETURN_NOT_OK(ReadPVector(r, dict));
    HYRISE_NV_RETURN_NOT_OK(ReadPVector(r, blob));
    HYRISE_NV_RETURN_NOT_OK(ReadPVector(r, attr));
    // The checkpoint carries values and blob only; the hash is derived.
    HYRISE_NV_RETURN_NOT_OK(
        table->delta().column(c).dictionary().RebuildHash());
  }
  {
    alloc::PVector<storage::MvccEntry> mvcc(&region, &alloc,
                                            &group->delta_mvcc);
    HYRISE_NV_RETURN_NOT_OK(ReadPVector(r, mvcc));
  }
  return table->ReattachGroup();
}

}  // namespace

Status WriteCheckpoint(const std::string& path,
                       const BlockDeviceOptions& device_options,
                       storage::Catalog& catalog,
                       txn::CommitTable& commit_table,
                       uint64_t log_offset) {
  ByteWriter w;
  w.U64(kCheckpointMagic);
  w.U32(kCheckpointVersion);
  w.U64(log_offset);
  w.U64(commit_table.block()->commit_watermark);
  w.U64(commit_table.block()->tid_block);
  w.U64(commit_table.block()->cid_block);
  w.U32(static_cast<uint32_t>(catalog.num_tables()));
  for (const auto& table : catalog.tables()) {
    SerializeTable(w, *table);
  }
  const uint32_t crc = MaskCrc(Crc32c(w.buffer().data(), w.buffer().size()));
  w.U32(crc);

  // Write to a temp file and rename, so a crash never clobbers the
  // previous checkpoint.
  const std::string tmp_path = path + ".tmp";
  {
    auto device_result = BlockDevice::Create(tmp_path, device_options);
    if (!device_result.ok()) return device_result.status();
    auto append_result =
        (*device_result)->Append(w.buffer().data(), w.buffer().size());
    if (!append_result.ok()) return append_result.status();
    HYRISE_NV_RETURN_NOT_OK((*device_result)->Sync());
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    return Status::IOError("checkpoint rename failed");
  }
  return Status::OK();
}

Result<CheckpointInfo> LoadCheckpoint(
    const std::string& path, const BlockDeviceOptions& device_options,
    alloc::PHeap& heap, storage::Catalog& catalog,
    txn::CommitTable& commit_table) {
  if (!nvm::FileExists(path)) {
    return Status::NotFound("no checkpoint at " + path);
  }
  auto device_result = BlockDevice::Open(path, device_options);
  if (!device_result.ok()) return device_result.status();
  BlockDevice& device = **device_result;
  if (device.size() < 8 + 4 + 8 * 4 + 4 + 4) {
    return Status::Corruption("checkpoint too small");
  }
  std::vector<uint8_t> data(device.size());
  HYRISE_NV_RETURN_NOT_OK(device.Read(0, data.data(), data.size()));

  const size_t content_len = data.size() - 4;
  uint32_t stored_crc;
  std::memcpy(&stored_crc, data.data() + content_len, 4);
  if (stored_crc != MaskCrc(Crc32c(data.data(), content_len))) {
    return Status::Corruption("checkpoint CRC mismatch");
  }

  ByteReader r(data.data(), content_len);
  uint64_t magic;
  uint32_t version;
  CheckpointInfo info;
  info.bytes = data.size();
  HYRISE_NV_RETURN_NOT_OK(r.U64(&magic));
  HYRISE_NV_RETURN_NOT_OK(r.U32(&version));
  if (magic != kCheckpointMagic || version != kCheckpointVersion) {
    return Status::Corruption("bad checkpoint header");
  }
  HYRISE_NV_RETURN_NOT_OK(r.U64(&info.log_offset));
  uint64_t watermark, tid_block, cid_block;
  HYRISE_NV_RETURN_NOT_OK(r.U64(&watermark));
  HYRISE_NV_RETURN_NOT_OK(r.U64(&tid_block));
  HYRISE_NV_RETURN_NOT_OK(r.U64(&cid_block));
  info.watermark = watermark;

  uint32_t table_count;
  HYRISE_NV_RETURN_NOT_OK(r.U32(&table_count));
  for (uint32_t t = 0; t < table_count; ++t) {
    HYRISE_NV_RETURN_NOT_OK(DeserializeTable(r, heap, catalog, &info));
  }

  // Restore transaction state.
  auto* block = commit_table.block();
  heap.region().AtomicPersist64(&block->commit_watermark, watermark);
  heap.region().AtomicPersist64(&block->tid_block, tid_block);
  heap.region().AtomicPersist64(&block->cid_block, cid_block);
  return info;
}

}  // namespace hyrise_nv::wal
