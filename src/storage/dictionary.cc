#include "storage/dictionary.h"

#include <bit>
#include <cstring>

#include "common/macros.h"
#include "index/delta_index.h"

namespace hyrise_nv::storage {

uint64_t EncodeNumeric(const Value& value, DataType type) {
  switch (type) {
    case DataType::kInt64:
      return static_cast<uint64_t>(std::get<int64_t>(value));
    case DataType::kDouble:
      return std::bit_cast<uint64_t>(std::get<double>(value));
    case DataType::kString:
      break;
  }
  HYRISE_NV_CHECK(false, "EncodeNumeric on string column");
  return 0;
}

Value DecodeNumeric(uint64_t bits, DataType type) {
  switch (type) {
    case DataType::kInt64:
      return Value(static_cast<int64_t>(bits));
    case DataType::kDouble:
      return Value(std::bit_cast<double>(bits));
    case DataType::kString:
      break;
  }
  HYRISE_NV_CHECK(false, "DecodeNumeric on string column");
  return Value(int64_t{0});
}

int CompareNumericEncoded(DataType type, uint64_t a, uint64_t b) {
  if (type == DataType::kInt64) {
    const auto ia = static_cast<int64_t>(a);
    const auto ib = static_cast<int64_t>(b);
    return ia < ib ? -1 : (ia > ib ? 1 : 0);
  }
  const double da = std::bit_cast<double>(a);
  const double db = std::bit_cast<double>(b);
  return da < db ? -1 : (da > db ? 1 : 0);
}

std::string_view BlobRead(const alloc::PVector<char>& blob,
                          uint64_t offset) {
  const uint64_t size = blob.size();
  if (offset > size || size - offset < 4) return {};
  const char* base = blob.data();
  uint32_t len = 0;
  std::memcpy(&len, base + offset, 4);
  if (len > size - offset - 4) return {};
  return std::string_view(base + offset + 4, len);
}

Result<uint64_t> BlobAppend(alloc::PVector<char>& blob,
                            std::string_view text, bool fenced) {
  if (text.size() > UINT32_MAX) {
    return Status::InvalidArgument("string too long");
  }
  const uint64_t offset = blob.size();
  const uint32_t len = static_cast<uint32_t>(text.size());
  std::vector<char> entry(4 + text.size());
  std::memcpy(entry.data(), &len, 4);
  std::memcpy(entry.data() + 4, text.data(), text.size());
  HYRISE_NV_RETURN_NOT_OK(
      fenced ? blob.BulkAppend(entry.data(), entry.size())
             : blob.BulkAppendUnfenced(entry.data(), entry.size()));
  return offset;
}

// ---------------------------------------------------------------------------
// DeltaDictionary

namespace {

/// Capacity (in uint32 slots) of a fresh hash buffer. Each buffer is a
/// power of two — the allocator's size classes — and a third of it holds
/// heads, so a full buffer runs at load factor 2; the next insert
/// doubles it.
constexpr uint64_t kInitialHashSlots = 16;

uint64_t BucketsFor(uint64_t slots) { return (slots - 1) / 3; }

}  // namespace

DeltaDictionary::DeltaDictionary(DataType type, nvm::PmemRegion* region,
                                 alloc::PAllocator* alloc,
                                 PDeltaColumnMeta* meta)
    : type_(type),
      region_(region),
      alloc_(alloc),
      values_(region, alloc, &meta->dict_values),
      blob_(region, alloc, &meta->dict_blob),
      hash_(region, alloc, &meta->dict_hash) {}

void DeltaDictionary::Format(nvm::PmemRegion& region,
                             PDeltaColumnMeta* meta) {
  alloc::PVector<uint64_t>::Format(region, &meta->dict_values);
  alloc::PVector<char>::Format(region, &meta->dict_blob);
  alloc::PVector<uint32_t>::Format(region, &meta->attr);
  alloc::PVector<uint32_t>::Format(region, &meta->dict_hash);
}

Status DeltaDictionary::Attach() {
  HYRISE_NV_RETURN_NOT_OK(values_.Validate());
  HYRISE_NV_RETURN_NOT_OK(blob_.Validate());
  HYRISE_NV_RETURN_NOT_OK(hash_.Validate());
  const uint64_t n = values_.size();
  const uint32_t* table = hash_.data();
  if (table == nullptr || hash_.empty()) {
    return n == 0 ? Status::OK()
                  : Status::Corruption("delta dictionary hash missing");
  }
  const uint64_t buckets = table[0];
  if (buckets == 0 || 1 + buckets + n > hash_.capacity()) {
    return Status::Corruption("delta dictionary hash header corrupt");
  }
  return Status::OK();
}

Status DeltaDictionary::RepairTornInsert() {
  uint64_t n = values_.size();
  uint32_t* table = hash_.data();
  if (table == nullptr || hash_.empty()) return Status::OK();
  const uint64_t buckets = table[0];
  // A head published for the staged id n whose size bump was lost: the
  // entry is durable (it was fenced before either), so roll forward.
  if (n < values_.capacity() && 1 + buckets + n < hash_.capacity() &&
      table[1 + DictBucketOf(HashOfEntry(n), buckets)] == n + 1) {
    values_.RecoverSize(++n);
  }
  if (hash_.size() != 1 + buckets + n) hash_.RecoverSize(1 + buckets + n);
  if (n == 0) return Status::OK();
  const uint64_t last = n - 1;
  if (type_ == DataType::kString) {
    const uint64_t off = values_.Get(last);
    if (off > blob_.size() || blob_.size() - off < 4) {
      return Status::Corruption("delta dictionary blob offset corrupt");
    }
  }
  uint32_t* head = table + 1 + DictBucketOf(HashOfEntry(last), buckets);
  if (*head == last + 1) return Status::OK();
  // The newest id links to the head it saw; if that is still the head,
  // the crash persisted the size bump but not the publish.
  if (table[1 + buckets + last] != *head) {
    return Status::Corruption("delta dictionary hash head corrupt");
  }
  region_->AtomicPersist32(head, static_cast<uint32_t>(last + 1));
  return Status::OK();
}

Status DeltaDictionary::RebuildHash() {
  const uint64_t n = values_.size();
  if (n == 0) return Status::OK();
  uint64_t slots = kInitialHashSlots;
  while (1 + BucketsFor(slots) + n > slots) slots *= 2;
  return Rehash(slots);
}

DeltaDictionary::Probe DeltaDictionary::MakeProbe(const Value& value) const {
  Probe probe;
  if (type_ == DataType::kString) {
    probe.text = std::get<std::string>(value);
    probe.hash = index::HashStringBytes(probe.text);
  } else {
    probe.bits = EncodeNumeric(value, type_);
    probe.hash = index::HashNumericBits(probe.bits);
  }
  return probe;
}

uint64_t DeltaDictionary::HashOfEntry(uint64_t id) const {
  const uint64_t stored = values_.data()[id];
  return type_ == DataType::kString
             ? index::HashStringBytes(BlobRead(blob_, stored))
             : index::HashNumericBits(stored);
}

ValueId DeltaDictionary::Find(const uint32_t* table,
                              const Probe& probe) const {
  const uint64_t buckets = table[0];
  const uint32_t* chain = table + 1 + buckets;
  // Acquire pairs with the head publish in GetOrInsert: the id, its
  // value and every older link are written, and the size loaded below
  // already covers them. Any id beyond it is a torn or corrupt link.
  uint64_t id1 = __atomic_load_n(
      table + 1 + DictBucketOf(probe.hash, buckets), __ATOMIC_ACQUIRE);
  const uint64_t size = values_.size();
  const uint64_t* values = values_.data();
  for (uint64_t steps = 0; id1 != 0 && id1 <= size && steps < size;
       ++steps) {
    const uint64_t id = id1 - 1;
    const bool match = type_ == DataType::kString
                           ? BlobRead(blob_, values[id]) == probe.text
                           : values[id] == probe.bits;
    if (match) return static_cast<ValueId>(id);
    id1 = chain[id];
  }
  return kInvalidValueId;
}

Status DeltaDictionary::Rehash(uint64_t slots) {
  const uint64_t n = values_.size();
  const uint64_t buckets = BucketsFor(slots);
  std::vector<uint32_t> table(1 + buckets + n, 0);
  table[0] = static_cast<uint32_t>(buckets);
  uint32_t* heads = table.data() + 1;
  uint32_t* chain = heads + buckets;
  for (uint64_t id = 0; id < n; ++id) {
    uint32_t& head = heads[DictBucketOf(HashOfEntry(id), buckets)];
    chain[id] = head;
    head = static_cast<uint32_t>(id + 1);
  }
  return hash_.Replace(table.data(), table.size(), slots);
}

Result<ValueId> DeltaDictionary::GetOrInsert(const Value& value) {
  const Probe probe = MakeProbe(value);
  const uint32_t* table = hash_.data();
  if (table != nullptr) {
    const ValueId found = Find(table, probe);
    if (found != kInvalidValueId) return found;
  }
  const uint64_t n = values_.size();
  if (n >= kInvalidValueId - 1) {
    return Status::OutOfMemory("dictionary full");
  }
  // The new id's link needs a slot; a full buffer doubles (rehashing).
  if (table == nullptr || hash_.size() + 1 > hash_.capacity()) {
    HYRISE_NV_RETURN_NOT_OK(Rehash(
        table == nullptr ? kInitialHashSlots : hash_.capacity() * 2));
  }

  // 1. Value (and string bytes) plus the chain link, flushed; one fence.
  uint64_t stored = probe.bits;
  if (type_ == DataType::kString) {
    HYRISE_NV_ASSIGN_OR_RETURN(stored,
                               BlobAppend(blob_, probe.text, false));
  }
  HYRISE_NV_RETURN_NOT_OK(values_.StageAppend(stored));
  const uint64_t head_index = 1 + DictBucketOf(probe.hash, hash_.data()[0]);
  HYRISE_NV_RETURN_NOT_OK(hash_.StageAppend(hash_.data()[head_index]));
  region_->Fence();
  // 2. Commit: sizes, then the head. Release stores in that order, so a
  // reader that sees the head sees the sizes; one fence makes all three
  // durable. A crash may persist any subset of them — RepairTornInsert
  // re-publishes a head whose size landed and rolls a published head's
  // size forward (the entry itself is durable since step 1).
  hash_.CommitStaged(1);
  values_.CommitStaged(1);
  uint32_t* head = hash_.data() + head_index;
  __atomic_store_n(head, static_cast<uint32_t>(n + 1), __ATOMIC_RELEASE);
  region_->Flush(head, sizeof(*head));
  region_->Fence();
  return static_cast<ValueId>(n);
}

ValueId DeltaDictionary::Lookup(const Value& value) const {
  alloc::ReaderEpochs::Guard guard(alloc_->reader_epochs());
  const uint32_t* table = hash_.data();
  if (table == nullptr) return kInvalidValueId;
  return Find(table, MakeProbe(value));
}

Value DeltaDictionary::GetValue(ValueId id) const {
  HYRISE_NV_DCHECK(id < values_.size(), "value id out of range");
  if (type_ == DataType::kString) {
    return Value(std::string(BlobRead(blob_, values_.Get(id))));
  }
  return DecodeNumeric(values_.Get(id), type_);
}

// ---------------------------------------------------------------------------
// MainDictionary

MainDictionary::MainDictionary(DataType type, nvm::PmemRegion* region,
                               alloc::PAllocator* alloc,
                               PMainColumnMeta* meta)
    : type_(type),
      values_(region, alloc, &meta->dict_values),
      blob_(region, alloc, &meta->dict_blob) {}

Status MainDictionary::Validate() const {
  HYRISE_NV_RETURN_NOT_OK(values_.Validate());
  return blob_.Validate();
}

Value MainDictionary::GetValue(ValueId id) const {
  HYRISE_NV_DCHECK(id < values_.size(), "value id out of range");
  if (type_ == DataType::kString) {
    return Value(std::string(BlobRead(blob_, values_.Get(id))));
  }
  return DecodeNumeric(values_.Get(id), type_);
}

int MainDictionary::CompareEntry(ValueId id, const Value& value) const {
  if (type_ == DataType::kString) {
    const std::string_view entry = BlobRead(blob_, values_.Get(id));
    return entry.compare(std::get<std::string>(value));
  }
  return CompareNumericEncoded(type_, values_.Get(id),
                               EncodeNumeric(value, type_));
}

ValueId MainDictionary::LowerBound(const Value& value) const {
  uint64_t lo = 0, hi = values_.size();
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (CompareEntry(static_cast<ValueId>(mid), value) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return static_cast<ValueId>(lo);
}

ValueId MainDictionary::UpperBound(const Value& value) const {
  uint64_t lo = 0, hi = values_.size();
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (CompareEntry(static_cast<ValueId>(mid), value) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return static_cast<ValueId>(lo);
}

ValueId MainDictionary::Find(const Value& value) const {
  const ValueId id = LowerBound(value);
  if (id < values_.size() && CompareEntry(id, value) == 0) return id;
  return kInvalidValueId;
}

}  // namespace hyrise_nv::storage
