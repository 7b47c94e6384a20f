#ifndef HYRISE_NV_STORAGE_DICTIONARY_H_
#define HYRISE_NV_STORAGE_DICTIONARY_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "alloc/pvector.h"
#include "common/status.h"
#include "storage/layout.h"
#include "storage/types.h"

namespace hyrise_nv::storage {

/// Bit-encoding of numeric values into the uint64 dictionary slots.
uint64_t EncodeNumeric(const Value& value, DataType type);
Value DecodeNumeric(uint64_t bits, DataType type);

/// Three-way comparison of two encoded numeric values of `type`.
int CompareNumericEncoded(DataType type, uint64_t a, uint64_t b);

/// Reads the length-prefixed string at `offset` in a blob vector; an
/// entry that does not fit inside the blob reads as empty.
std::string_view BlobRead(const alloc::PVector<char>& blob, uint64_t offset);

/// Appends a length-prefixed string to a blob vector; returns its offset.
/// `fenced = false` flushes without fencing (see
/// PVector::BulkAppendUnfenced).
Result<uint64_t> BlobAppend(alloc::PVector<char>& blob,
                            std::string_view text, bool fenced = true);

/// Bucket of `hash` in a delta-dictionary hash with `buckets` heads
/// (multiply-shift range reduction: any bucket count, no division).
inline uint64_t DictBucketOf(uint64_t hash, uint64_t buckets) {
  return ((hash >> 32) * buckets) >> 32;
}

/// The delta partition's unsorted, append-only dictionary for one column.
///
/// All state is persistent: the value vector (numeric bits, or blob
/// offsets for strings), the string blob, and a chained value→id hash
/// (PDeltaColumnMeta::dict_hash) hashed with the restart-stable
/// index::HashValue. Nothing is rebuilt at open — Attach is O(1) —
/// which is what keeps NVM restart independent of the delta size
/// (DESIGN.md §4.3).
///
/// Concurrency: one writer (GetOrInsert, under the table write mutex)
/// and any number of lock-free readers (Lookup, GetValue; a GetValue
/// caller racing the writer pins the reader epoch, as Table::GetValue
/// does, and Lookup pins it itself). An insert
/// writes the value and its chain link and fences, then stores the sizes
/// and only after them the bucket head (release stores) and fences
/// again; Lookup acquire-loads the head and bounds every id by the size
/// it loads after it, so it sees a value completely or not at all. Heads and chain live
/// in one buffer, so a rehash (doubling the buckets once the load factor
/// exceeds 2) swaps both at once; buffers replaced by a rehash or growth
/// are freed only after the readers that could hold them have left
/// (alloc::ReaderEpochs, DESIGN.md §12).
///
/// Crash consistency: the entry is durable before anything points at it;
/// the sizes and the head persist under one fence, so a crash may keep
/// either without the other. RepairTornInsert finishes the insert in both
/// cases (re-publishing the head, or rolling the size forward).
class DeltaDictionary {
 public:
  DeltaDictionary() = default;
  DeltaDictionary(DataType type, nvm::PmemRegion* region,
                  alloc::PAllocator* alloc, PDeltaColumnMeta* meta);

  /// Formats empty persistent vectors for a fresh column.
  static void Format(nvm::PmemRegion& region, PDeltaColumnMeta* meta);

  /// Validates the descriptors and the hash header. O(1); touches no
  /// entry and writes nothing.
  Status Attach();

  /// Post-crash repair, O(1): completes an insert whose size bump or head
  /// publish the crash kept without the other, and re-derives the hash
  /// size from the value count.
  Status RepairTornInsert();

  /// Rebuilds the hash from the value vector in one pass (checkpoint
  /// load, whose format carries only values and blob).
  Status RebuildHash();

  /// Returns the id of `value`, inserting it if new. The insert persists
  /// the dictionary entry before returning. Single writer.
  Result<ValueId> GetOrInsert(const Value& value);

  /// Id of `value` if present, else kInvalidValueId. Lock-free; safe
  /// against a concurrent GetOrInsert.
  ValueId Lookup(const Value& value) const;

  Value GetValue(ValueId id) const;

  uint64_t size() const { return values_.size(); }
  DataType type() const { return type_; }

 private:
  /// A query value in stored form, with its hash.
  struct Probe {
    uint64_t bits = 0;      // numeric columns
    std::string_view text;  // string columns
    uint64_t hash = 0;
  };

  Probe MakeProbe(const Value& value) const;
  /// Hash of the stored entry `id` (same as HashValue of its value).
  uint64_t HashOfEntry(uint64_t id) const;
  /// Walks the probe's bucket in the hash buffer `table`.
  ValueId Find(const uint32_t* table, const Probe& probe) const;
  /// Replaces the hash with one in a `slots`-slot buffer over every id.
  Status Rehash(uint64_t slots);

  DataType type_ = DataType::kInt64;
  nvm::PmemRegion* region_ = nullptr;
  alloc::PAllocator* alloc_ = nullptr;
  alloc::PVector<uint64_t> values_;
  alloc::PVector<char> blob_;
  alloc::PVector<uint32_t> hash_;
};

/// Read-only view of a main partition's sorted dictionary. Value ids are
/// positions in sorted order, which makes range predicates id-comparable.
class MainDictionary {
 public:
  MainDictionary() = default;
  MainDictionary(DataType type, nvm::PmemRegion* region,
                 alloc::PAllocator* alloc, PMainColumnMeta* meta);

  Status Validate() const;

  Value GetValue(ValueId id) const;

  /// Exact lookup by binary search; kInvalidValueId if absent.
  ValueId Find(const Value& value) const;

  /// First id whose value is >= `value` (== size() if none).
  ValueId LowerBound(const Value& value) const;
  /// First id whose value is > `value` (== size() if none).
  ValueId UpperBound(const Value& value) const;

  uint64_t size() const { return values_.size(); }
  DataType type() const { return type_; }

  /// Mutable accessors used only by the merge builder.
  alloc::PVector<uint64_t>& values() { return values_; }
  alloc::PVector<char>& blob() { return blob_; }
  const alloc::PVector<char>& blob() const { return blob_; }

 private:
  // Compares dictionary entry `id` against `value`; <0, 0, >0.
  int CompareEntry(ValueId id, const Value& value) const;

  DataType type_ = DataType::kInt64;
  alloc::PVector<uint64_t> values_;
  alloc::PVector<char> blob_;
};

}  // namespace hyrise_nv::storage

#endif  // HYRISE_NV_STORAGE_DICTIONARY_H_
