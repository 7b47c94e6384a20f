#ifndef HYRISE_NV_NVM_PMEM_REGION_H_
#define HYRISE_NV_NVM_PMEM_REGION_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "nvm/latency_model.h"

namespace hyrise_nv::nvm {

/// Cache-line size assumed by the persistence model. Flushes persist whole
/// lines, exactly like CLWB on hardware.
constexpr size_t kCacheLineSize = 64;

/// How faithfully the region models power-failure semantics.
enum class TrackingMode {
  /// No shadow image. Persist calls charge latency and update statistics
  /// only. SimulateCrash is not available. Cheapest; used by throughput
  /// benchmarks.
  kNone,
  /// Full cache-line-granular shadow image. Stores land in the working
  /// image; Flush stages lines; Fence copies staged lines into the shadow;
  /// SimulateCrash restores the working image from the shadow, losing every
  /// store that was not flushed *and* fenced. Stricter than hardware (which
  /// may opportunistically write back unflushed lines), which is exactly
  /// what crash-consistency tests want: an ordering bug loses data
  /// deterministically.
  kShadow,
};

/// Options for creating or opening a PmemRegion.
struct PmemRegionOptions {
  TrackingMode tracking = TrackingMode::kShadow;
  NvmLatencyModel latency;
  /// Backing file. Empty means an anonymous in-process region (sufficient
  /// for crash *simulation*; a real process-restart demo needs a file).
  std::string file_path;
};

/// A simulated byte-addressable persistent memory region.
///
/// This is the substrate substitution for the paper's NVM hardware (see
/// DESIGN.md §2). The application stores directly into `base()[0..size)`
/// and makes data durable with Flush/Fence or the combined Persist. The
/// region tracks, at cache-line granularity, what would have survived a
/// power failure, and can simulate that failure.
///
/// Thread safety: concurrent stores to disjoint bytes are safe (plain
/// memory). Flush/Fence/Persist are internally synchronised in kShadow
/// mode; in kNone mode they are lock-free.
class PmemRegion {
 public:
  /// Creates a fresh zero-filled region of `size` bytes. If
  /// `options.file_path` is set, the file is created (truncated).
  static Result<std::unique_ptr<PmemRegion>> Create(
      size_t size, const PmemRegionOptions& options);

  /// Opens an existing file-backed region, presenting its last durable
  /// contents. This is the instant-restart path: the previous process's
  /// persisted bytes reappear at `base()`.
  static Result<std::unique_ptr<PmemRegion>> Open(
      const PmemRegionOptions& options);

  ~PmemRegion();
  HYRISE_NV_DISALLOW_COPY_AND_MOVE(PmemRegion);

  uint8_t* base() { return working_; }
  const uint8_t* base() const { return working_; }
  size_t size() const { return size_; }

  /// Stages the cache lines covering [addr, addr+len) for persistence
  /// (models CLWB). Charges flush latency per line. The lines only become
  /// durable at the next Fence.
  void Flush(const void* addr, size_t len);

  /// Drains staged lines into the durable image (models SFENCE + ADR).
  void Fence();

  /// Flush + Fence: makes [addr, addr+len) durable. Equivalent to
  /// pmem_persist.
  void Persist(const void* addr, size_t len);

  /// Convenience: persist a single trivially-copyable object in place.
  template <typename T>
  void PersistObject(const T* obj) {
    Persist(obj, sizeof(T));
  }

  /// Atomically stores an 8-byte value and persists it. The building block
  /// for publish pointers, version counters, and commit states; 8-byte
  /// aligned stores are power-fail atomic on real persistent memory.
  void AtomicPersist64(uint64_t* slot, uint64_t value);

  /// 4-byte variant of AtomicPersist64 (aligned 4-byte stores are
  /// power-fail atomic too); publishes 32-bit ids such as hash heads.
  void AtomicPersist32(uint32_t* slot, uint32_t value);

  /// Simulates a power failure: every store that was not flushed-and-fenced
  /// disappears. Only valid in kShadow mode. After this call the working
  /// image equals the durable image and execution may continue (the usual
  /// test pattern is: crash, then run recovery). Clears any fence freeze.
  Status SimulateCrash();

  /// Crash-point injection: after `count` more fences the durable image
  /// freezes — subsequent flushes and fences no longer reach it, exactly
  /// as if power failed at that fence. Execution continues normally in
  /// the working image, so a test can run past the crash point and then
  /// call SimulateCrash() to rewind to it. Pass UINT64_MAX to disable.
  /// Only meaningful in kShadow mode.
  void FreezeShadowAfterFences(uint64_t count);

  /// Whether the durable image is currently frozen.
  bool shadow_frozen() const { return shadow_frozen_; }

  /// Writes the durable image back to the backing file (msync-equivalent).
  /// Called on clean shutdown of file-backed regions; also usable to
  /// persist a consistent cut for process-restart demos.
  Status SyncToFile();

  /// Offset of `ptr` within the region. `ptr` must point inside it.
  uint64_t OffsetOf(const void* ptr) const {
    const auto* p = static_cast<const uint8_t*>(ptr);
    HYRISE_NV_DCHECK(p >= working_ && p < working_ + size_,
                     "pointer outside region");
    return static_cast<uint64_t>(p - working_);
  }

  /// Whether `ptr` points inside the region.
  bool Contains(const void* ptr) const {
    const auto* p = static_cast<const uint8_t*>(ptr);
    return p >= working_ && p < working_ + size_;
  }

  NvmStats& stats() { return stats_; }
  const NvmLatencyModel& latency() const { return options_.latency; }
  TrackingMode tracking() const { return options_.tracking; }
  const std::string& file_path() const { return options_.file_path; }

 private:
  PmemRegion(size_t size, PmemRegionOptions options);

  Status Init(bool open_existing);

  // Copies staged line ranges working -> shadow. Caller holds mutex_.
  void ApplyPendingLocked();

  // Applies any armed persist faults (bit flip / stall) to the range just
  // made durable. Called from Persist only when the injector is armed.
  void MaybeInjectPersistFault(const void* addr, size_t len);

  size_t size_ = 0;
  PmemRegionOptions options_;
  uint8_t* working_ = nullptr;        // application-visible image
  std::vector<uint8_t> shadow_;        // durable image (kShadow only)
  std::vector<std::pair<uint64_t, uint64_t>> pending_;  // staged [begin,end) line ranges
  uint64_t fence_budget_ = UINT64_MAX;  // fences until the shadow freezes
  bool shadow_frozen_ = false;
  std::mutex mutex_;
  int fd_ = -1;
  bool mapped_ = false;
  NvmStats stats_;
};

}  // namespace hyrise_nv::nvm

#endif  // HYRISE_NV_NVM_PMEM_REGION_H_
