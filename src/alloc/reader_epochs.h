#ifndef HYRISE_NV_ALLOC_READER_EPOCHS_H_
#define HYRISE_NV_ALLOC_READER_EPOCHS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/macros.h"

namespace hyrise_nv::alloc {

/// Grace periods for persistent buffers that a writer replaced while
/// lock-free readers may still hold the old one (PVector growth, the
/// delta dictionary's rehash). Epoch-based reclamation: a reader pins
/// the current epoch for one read operation (a Guard); a writer tags each
/// retired buffer with the epoch it was retired in and frees it once the
/// epoch has advanced twice. Advancing from e to e+1 requires every
/// reader pinned at e-1 to have left, so at epoch t+2 no reader that
/// could have loaded a buffer retired at t is still inside. DESIGN.md §12
/// has the ordering argument.
///
/// Readers never block and never wait for writers; writers never wait
/// for readers (a buffer whose readers are still inside simply stays
/// on the deferred list until a later reclaim pass).
class ReaderEpochs {
 public:
  /// Pins the current epoch for the lifetime of the guard.
  class Guard {
   public:
    explicit Guard(ReaderEpochs& epochs);
    ~Guard() { counter_->fetch_sub(1, std::memory_order_release); }
    HYRISE_NV_DISALLOW_COPY_AND_MOVE(Guard);

   private:
    std::atomic<int64_t>* counter_;
  };

  ReaderEpochs() = default;
  HYRISE_NV_DISALLOW_COPY_AND_MOVE(ReaderEpochs);

  /// Tag for a buffer the caller has just unpublished (the release store
  /// of the replacement must precede this call).
  uint64_t RetireTag();

  /// Whether no reader can still hold a buffer retired under `tag`.
  /// Advances the epoch when the readers of the previous one have left.
  bool Reclaimable(uint64_t tag);

 private:
  static constexpr size_t kShards = 16;
  struct alignas(64) Counter {
    std::atomic<int64_t> readers{0};
  };

  /// Moves the epoch forward by one if nobody is pinned at epoch-1.
  void TryAdvance();

  std::atomic<uint64_t> epoch_{0};
  Counter pinned_[2][kShards];
};

}  // namespace hyrise_nv::alloc

#endif  // HYRISE_NV_ALLOC_READER_EPOCHS_H_
