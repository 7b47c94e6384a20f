#include "alloc/reader_epochs.h"

namespace hyrise_nv::alloc {

namespace {

/// Round-robin counter shard per thread, so concurrent readers rarely
/// share a cache line.
size_t ThreadShard(size_t shards) {
  static std::atomic<size_t> next{0};
  thread_local const size_t shard =
      next.fetch_add(1, std::memory_order_relaxed);
  return shard % shards;
}

}  // namespace

ReaderEpochs::Guard::Guard(ReaderEpochs& epochs) {
  const size_t shard = ThreadShard(kShards);
  for (;;) {
    const uint64_t epoch = epochs.epoch_.load(std::memory_order_seq_cst);
    std::atomic<int64_t>& counter = epochs.pinned_[epoch & 1][shard].readers;
    counter.fetch_add(1, std::memory_order_seq_cst);
    // Re-check: if the epoch moved between the load and the announce, a
    // writer may already have judged epoch-1's counter empty without
    // seeing us. Retry under the new epoch.
    if (epochs.epoch_.load(std::memory_order_seq_cst) == epoch) {
      counter_ = &counter;
      return;
    }
    counter.fetch_sub(1, std::memory_order_release);
  }
}

uint64_t ReaderEpochs::RetireTag() {
  // Orders the caller's unpublish store before the epoch read: a reader
  // that pins a later epoch is guaranteed to load the replacement.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  return epoch_.load(std::memory_order_seq_cst);
}

void ReaderEpochs::TryAdvance() {
  uint64_t epoch = epoch_.load(std::memory_order_seq_cst);
  for (const Counter& c : pinned_[(epoch + 1) & 1]) {
    if (c.readers.load(std::memory_order_seq_cst) != 0) return;
  }
  epoch_.compare_exchange_strong(epoch, epoch + 1,
                                 std::memory_order_seq_cst);
}

bool ReaderEpochs::Reclaimable(uint64_t tag) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (epoch_.load(std::memory_order_seq_cst) >= tag + 2) return true;
    TryAdvance();
  }
  return epoch_.load(std::memory_order_seq_cst) >= tag + 2;
}

}  // namespace hyrise_nv::alloc
