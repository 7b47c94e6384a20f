#include "nvm/pmem_region.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "obs/blackbox.h"
#include "obs/metrics.h"

namespace hyrise_nv::nvm {

namespace {

uint64_t LineDown(uint64_t x) { return x & ~(kCacheLineSize - 1); }
uint64_t LineUp(uint64_t x) {
  return (x + kCacheLineSize - 1) & ~(kCacheLineSize - 1);
}

}  // namespace

PmemRegion::PmemRegion(size_t size, PmemRegionOptions options)
    : size_(size), options_(std::move(options)) {}

Result<std::unique_ptr<PmemRegion>> PmemRegion::Create(
    size_t size, const PmemRegionOptions& options) {
  if (size == 0) {
    return Status::InvalidArgument("PmemRegion size must be > 0");
  }
  auto region =
      std::unique_ptr<PmemRegion>(new PmemRegion(size, options));
  HYRISE_NV_RETURN_NOT_OK(region->Init(/*open_existing=*/false));
  return region;
}

Result<std::unique_ptr<PmemRegion>> PmemRegion::Open(
    const PmemRegionOptions& options) {
  if (options.file_path.empty()) {
    return Status::InvalidArgument("PmemRegion::Open requires a file path");
  }
  struct stat st;
  if (::stat(options.file_path.c_str(), &st) != 0) {
    return Status::IOError("cannot stat NVM file " + options.file_path +
                           ": " + std::strerror(errno));
  }
  if (st.st_size == 0) {
    return Status::Corruption("NVM file is empty: " + options.file_path);
  }
  auto region = std::unique_ptr<PmemRegion>(
      new PmemRegion(static_cast<size_t>(st.st_size), options));
  HYRISE_NV_RETURN_NOT_OK(region->Init(/*open_existing=*/true));
  return region;
}

Status PmemRegion::Init(bool open_existing) {
  if (!options_.file_path.empty()) {
    int flags = O_RDWR;
    if (!open_existing) flags |= O_CREAT | O_TRUNC;
    fd_ = ::open(options_.file_path.c_str(), flags, 0644);
    if (fd_ < 0) {
      return Status::IOError("cannot open NVM file " + options_.file_path +
                             ": " + std::strerror(errno));
    }
    if (!open_existing &&
        ::ftruncate(fd_, static_cast<off_t>(size_)) != 0) {
      return Status::IOError("cannot size NVM file: " +
                             std::string(std::strerror(errno)));
    }
    void* map = ::mmap(nullptr, size_, PROT_READ | PROT_WRITE, MAP_SHARED,
                       fd_, 0);
    if (map == MAP_FAILED) {
      return Status::IOError("mmap failed: " +
                             std::string(std::strerror(errno)));
    }
    working_ = static_cast<uint8_t*>(map);
  } else {
    void* map = ::mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (map == MAP_FAILED) {
      return Status::OutOfMemory("anonymous mmap of " +
                                 std::to_string(size_) + " bytes failed");
    }
    working_ = static_cast<uint8_t*>(map);
  }
  mapped_ = true;
  if (options_.tracking == TrackingMode::kShadow) {
    shadow_.resize(size_);
    // The durable image starts equal to the visible image: zeros for a
    // fresh region, the file's last durable contents for an opened one.
    std::memcpy(shadow_.data(), working_, size_);
  }
  return Status::OK();
}

PmemRegion::~PmemRegion() {
  if (mapped_) {
    if (fd_ >= 0) {
      ::msync(working_, size_, MS_SYNC);
    }
    ::munmap(working_, size_);
  }
  if (fd_ >= 0) ::close(fd_);
}

void PmemRegion::Flush(const void* addr, size_t len) {
  if (len == 0) return;
  const auto* p = static_cast<const uint8_t*>(addr);
  HYRISE_NV_CHECK(p >= working_ && p + len <= working_ + size_,
                  "flush range outside region");
  const uint64_t off = static_cast<uint64_t>(p - working_);
  const uint64_t begin = LineDown(off);
  const uint64_t end = LineUp(off + len);
  const uint64_t lines = (end - begin) / kCacheLineSize;

  stats_.flush_lines.fetch_add(lines, std::memory_order_relaxed);
  stats_.flushed_bytes.fetch_add(end - begin, std::memory_order_relaxed);

  const auto& lat = options_.latency;
  if (lat.flush_ns != 0 || lat.per_byte_ns != 0.0) {
    SpinDelayNanos(static_cast<uint64_t>(lat.flush_ns) * lines +
                   static_cast<uint64_t>(lat.per_byte_ns *
                                         static_cast<double>(end - begin)));
  }

  if (options_.tracking == TrackingMode::kShadow) {
    std::lock_guard<std::mutex> guard(mutex_);
    pending_.emplace_back(begin, end);
  }
}

void PmemRegion::Fence() {
  stats_.fences.fetch_add(1, std::memory_order_relaxed);
  if (options_.latency.fence_ns != 0) {
    SpinDelayNanos(options_.latency.fence_ns);
  }
  if (options_.tracking == TrackingMode::kShadow) {
    std::lock_guard<std::mutex> guard(mutex_);
    if (shadow_frozen_) {
      pending_.clear();
      return;
    }
    ApplyPendingLocked();
    if (fence_budget_ != UINT64_MAX && --fence_budget_ == 0) {
      shadow_frozen_ = true;
    }
  }
}

void PmemRegion::ApplyPendingLocked() {
  for (const auto& [begin, end] : pending_) {
    std::memcpy(shadow_.data() + begin, working_ + begin, end - begin);
  }
  pending_.clear();
}

void PmemRegion::Persist(const void* addr, size_t len) {
  stats_.persist_calls.fetch_add(1, std::memory_order_relaxed);
#if HYRISE_NV_METRICS_ENABLED
  // The persist barrier is the paper's headline write-path cost; its
  // latency distribution (injected model + real flush work) is the one
  // histogram worth paying two TSC reads for on this path.
  const uint64_t start_ticks = obs::FastClock::NowTicks();
#endif
  Flush(addr, len);
  Fence();
#if HYRISE_NV_METRICS_ENABLED
  static obs::Histogram& persist_latency =
      obs::MetricsRegistry::Instance().GetHistogram(
          "nvm.persist.latency_ns");
  const uint64_t latency_ns = obs::FastClock::TicksToNanos(
      static_cast<int64_t>(obs::FastClock::NowTicks() - start_ticks));
  persist_latency.Record(latency_ns);
  // Sampled (1-in-64) flight-recorder event. Self-filter on the region:
  // only persists against the region that hosts the recorder matter, and
  // the filter keeps WAL-mode DRAM regions from spamming someone else's
  // recorder. Recording never re-enters Persist (its flush path uses
  // Flush+Fence directly).
  obs::BlackboxWriter* bb = obs::BlackboxWriter::Current();
  if (bb != nullptr && &bb->region() == this) {
    thread_local uint64_t persist_sample = 0;
    if ((persist_sample++ & 63) == 0) {
      bb->Record(obs::BlackboxEventType::kPersist, OffsetOf(addr), len,
                 latency_ns, 64);
    }
  }
#endif
  if (FaultInjector::Instance().any_armed()) {
    MaybeInjectPersistFault(addr, len);
  }
}

void PmemRegion::MaybeInjectPersistFault(const void* addr, size_t len) {
  auto& injector = FaultInjector::Instance();
  uint64_t stall_ns = 0;
  if (injector.ShouldFire(FaultPoint::kNvmPersistStall, &stall_ns)) {
    SpinDelayNanos(stall_ns != 0 ? stall_ns : 100000);
  }
  if (len == 0) return;
  if (injector.ShouldFire(FaultPoint::kNvmPersistBitFlip)) {
    // Corrupt one random bit of the range that just became durable, in
    // both the working and the durable image: media corruption survives
    // crash simulation, unlike an unfenced store.
    const uint64_t off = OffsetOf(addr);
    const uint64_t bit = injector.Rand() % (len * 8);
    const uint8_t mask = static_cast<uint8_t>(1u << (bit % 8));
    working_[off + bit / 8] ^= mask;
    if (options_.tracking == TrackingMode::kShadow) {
      std::lock_guard<std::mutex> guard(mutex_);
      shadow_[off + bit / 8] ^= mask;
    }
    HYRISE_NV_LOG(kWarn) << "fault injection: flipped bit " << bit
                         << " of persisted range at offset " << off;
  }
}

void PmemRegion::AtomicPersist64(uint64_t* slot, uint64_t value) {
  HYRISE_NV_DCHECK(reinterpret_cast<uintptr_t>(slot) % 8 == 0,
                   "AtomicPersist64 requires 8-byte alignment");
  __atomic_store_n(slot, value, __ATOMIC_RELEASE);
  Persist(slot, sizeof(uint64_t));
}

void PmemRegion::AtomicPersist32(uint32_t* slot, uint32_t value) {
  HYRISE_NV_DCHECK(reinterpret_cast<uintptr_t>(slot) % 4 == 0,
                   "AtomicPersist32 requires 4-byte alignment");
  __atomic_store_n(slot, value, __ATOMIC_RELEASE);
  Persist(slot, sizeof(uint32_t));
}

Status PmemRegion::SimulateCrash() {
  if (options_.tracking != TrackingMode::kShadow) {
    return Status::NotSupported(
        "SimulateCrash requires TrackingMode::kShadow");
  }
  std::lock_guard<std::mutex> guard(mutex_);
  // Unfenced flushes are lost too: a fence never made them durable.
  pending_.clear();
  std::memcpy(working_, shadow_.data(), size_);
  fence_budget_ = UINT64_MAX;
  shadow_frozen_ = false;
  return Status::OK();
}

void PmemRegion::FreezeShadowAfterFences(uint64_t count) {
  std::lock_guard<std::mutex> guard(mutex_);
  fence_budget_ = count;
  shadow_frozen_ = (count == 0);
}

Status PmemRegion::SyncToFile() {
  if (fd_ < 0) {
    return Status::NotSupported("region has no backing file");
  }
  if (::msync(working_, size_, MS_SYNC) != 0) {
    return Status::IOError("msync failed: " +
                           std::string(std::strerror(errno)));
  }
  return Status::OK();
}

}  // namespace hyrise_nv::nvm
