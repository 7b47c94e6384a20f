#ifndef HYRISE_NV_ALLOC_REGION_HEADER_H_
#define HYRISE_NV_ALLOC_REGION_HEADER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "nvm/pmem_region.h"

namespace hyrise_nv::alloc {

/// Number of named root slots in a region.
constexpr size_t kMaxRoots = 16;
/// Bytes per root name (NUL-padded).
constexpr size_t kRootNameLen = 24;
/// Number of allocation-intent slots (see PAllocator::AllocWithIntent).
constexpr size_t kMaxIntents = 64;

/// Intent slot states.
enum IntentState : uint64_t {
  kIntentFree = 0,
  kIntentPending = 1,
};

/// On-NVM layout at offset 0 of every region.
///
/// The header is the recovery entry point: magic + version + CRC over the
/// immutable prologue validate the region; the root table maps names
/// ("catalog", "commit_table", ...) to offsets; intent slots let recovery
/// reclaim allocations whose publication never completed; the
/// clean_shutdown flag distinguishes a clean close from a crash.
struct RegionHeader {
  static constexpr uint64_t kMagic = 0x48595249534E5631ull;  // "HYRISNV1"
  // v2: the flight-recorder carve-out owns the top of the region and the
  // allocator's heap_end stops short of it (obs/blackbox.h).
  // v3: delta dictionaries carry a persistent value→id hash
  // (PDeltaColumnMeta::dict_hash), so open no longer rebuilds one.
  static constexpr uint32_t kFormatVersion = 3;

  uint64_t magic;
  uint32_t format_version;
  uint32_t prologue_crc;  // masked CRC32C over magic..region_size
  uint64_t region_size;
  uint64_t clean_shutdown;  // 1 after CloseClean, 0 while open for writing

  struct RootSlot {
    char name[kRootNameLen];
    uint64_t offset;
  };
  RootSlot roots[kMaxRoots];

  struct IntentSlot {
    uint64_t state;   // IntentState
    uint64_t offset;  // block offset being allocated
  };
  IntentSlot intents[kMaxIntents];

  // Persistent allocator state follows the header at a fixed offset; see
  // PAllocator.
};

/// Formats a fresh region: writes and persists the header, zeroed roots and
/// intents, clean_shutdown = 0 (the region is considered "in use" until
/// CloseClean).
Status FormatRegionHeader(nvm::PmemRegion& region);

/// Validates magic, version, CRC and recorded size against the mapped
/// region. Returns Corruption on mismatch.
Status ValidateRegionHeader(const nvm::PmemRegion& region);

/// Accessor for the header of a formatted region.
inline RegionHeader* HeaderOf(nvm::PmemRegion& region) {
  return reinterpret_cast<RegionHeader*>(region.base());
}
inline const RegionHeader* HeaderOf(const nvm::PmemRegion& region) {
  return reinterpret_cast<const RegionHeader*>(region.base());
}

/// Sets (or creates) the named root and persists the slot.
Status SetRoot(nvm::PmemRegion& region, std::string_view name,
               uint64_t offset);

/// Looks up a named root. NotFound if absent.
Result<uint64_t> GetRoot(const nvm::PmemRegion& region,
                         std::string_view name);

/// Marks the region dirty (in use). Persisted.
void MarkDirty(nvm::PmemRegion& region);

/// Marks the region cleanly shut down. Persisted.
void MarkClean(nvm::PmemRegion& region);

/// Whether the region was cleanly shut down before this open.
bool WasCleanShutdown(const nvm::PmemRegion& region);

}  // namespace hyrise_nv::alloc

#endif  // HYRISE_NV_ALLOC_REGION_HEADER_H_
