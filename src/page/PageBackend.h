//===- page/PageBackend.h - Shared page-granular backing store -*- C++ -*-===//
///
/// \file
/// The page economy beneath the allocator zoo. A BuddyPageBackend hands
/// out page-granular spans of real memory; allocators that normally
/// reserve a private AlignedArena can instead draw their heaps, chunks, or
/// segment arenas from a shared backend (--backend buddy on the benches),
/// which makes external fragmentation, page reclaim, and
/// contiguous-allocation pressure measurable per allocator.
///
/// The backend is kernel-style: one arena carved by a binary
/// BuddyAllocator, a mutex for native multi-threaded use, and the
/// `page_acquire` fault-injection site on every acquisition.
///
/// BackedSpan is the RAII bridge: a span that came either from a backend
/// (released to it on destruction) or from a private AlignedArena (the
/// legacy path), so allocator code is backend-agnostic.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_PAGE_PAGEBACKEND_H
#define DDM_PAGE_PAGEBACKEND_H

#include "page/BuddyAllocator.h"
#include "support/Arena.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

namespace ddm {

/// A snapshot of a backend's page economy. Counters are cumulative since
/// construction; the Free/LargestFreeRun pair is the instantaneous view
/// external fragmentation is computed from.
struct PageBackendStats {
  uint64_t PagesAcquired = 0;  ///< Cumulative pages handed out.
  uint64_t PagesReclaimed = 0; ///< Cumulative pages returned.
  uint64_t PagesLive = 0;      ///< Pages currently out.
  uint64_t PeakPagesLive = 0;  ///< High water of PagesLive.
  uint64_t FreePages = 0;              ///< Pages currently free.
  uint64_t LargestFreeRunPages = 0;    ///< Largest contiguous free run.
  uint64_t Splits = 0;    ///< Buddy blocks split to satisfy requests.
  uint64_t Coalesces = 0; ///< Buddy pairs merged on release.
  /// \name Modelled residency (RSS).
  /// A page becomes resident the first time it is handed out and stays
  /// resident after release — freeing memory does not shrink a process's
  /// RSS — until adviseOut() models an madvise(MADV_DONTNEED) on it.
  /// @{
  uint64_t ResidentPages = 0;     ///< Pages currently counted in RSS.
  uint64_t PeakResidentPages = 0; ///< High water of ResidentPages.
  uint64_t AdvisedOutPages = 0;   ///< Cumulative pages given back.
  /// @}
  size_t PageBytes = 4096;

  uint64_t residentBytes() const { return ResidentPages * PageBytes; }

  /// 1 - largest/free: 0 when all free memory is one run, approaching 1
  /// as the free space shatters. 0 on an exhausted (or stat-less) backend.
  double externalFragmentation() const {
    if (FreePages == 0)
      return 0.0;
    return 1.0 - double(LargestFreeRunPages) / double(FreePages);
  }
};

/// A binary-buddy page backend over one aligned arena. Thread-safe: every
/// acquire/release takes the backend mutex (native workers share one
/// backend the way processes share a kernel).
class BuddyPageBackend {
public:
  /// The largest base alignment callers may request from acquire().
  static constexpr size_t MaxAlignment = 1ull << 20;

  /// Reserves \p ReserveBytes carved into pages of \p PageSize bytes (a
  /// power of two >= 256). Aborts via fatal() on reservation failure.
  explicit BuddyPageBackend(size_t ReserveBytes, size_t PageSize = 4096);

  /// Acquires at least \p Bytes of contiguous memory whose base is aligned
  /// to \p Alignment. Returns nullptr when the backend is exhausted or the
  /// `page_acquire` fault site fires. \p Alignment must be a power of two.
  std::byte *acquire(size_t Bytes, size_t Alignment);

  /// Returns the span previously acquired with exactly these \p Bytes.
  void release(std::byte *Ptr, size_t Bytes);

  PageBackendStats stats() const;

  /// Models madvise(MADV_DONTNEED) on every free-but-resident page: the
  /// cold-region give-back driven by the access sampler. Returns the
  /// number of bytes whose residency was dropped. Pages handed out again
  /// later become resident again (and re-fault, in the real system).
  uint64_t adviseOut();

  bool contains(const void *Ptr) const { return Arena.contains(Ptr); }
  size_t pageBytes() const { return PageBytes; }

  /// Test hook: bytes of the per-page bookkeeping (this backend's and its
  /// buddy engine's) backed by physical pages.
  size_t residentBookkeepingBytes() const;

private:
  size_t PageBytes;
  AlignedArena Arena;
  BuddyAllocator Buddy;
  uint64_t PagesAcquired = 0;
  uint64_t PagesReclaimed = 0;
  uint64_t PagesLive = 0;
  uint64_t PeakPagesLive = 0;
  uint64_t ResidentPages = 0;
  uint64_t PeakResidentPages = 0;
  uint64_t AdvisedOutPages = 0;
  /// One byte per arena page: is the page handed out / RSS-resident. On
  /// reserved pages, so they cost memory only where blocks were handed out.
  ReservedArray<uint8_t> LivePage;
  ReservedArray<uint8_t> ResidentPage;
  /// One past the highest page ever handed out: adviseOut() scans no
  /// further, so it reads no bookkeeping page that was never written.
  size_t PagesTouched = 0;
  mutable std::mutex M;
};

/// Builds a shared buddy backend; aborts via fatal() on reservation
/// failure (probe with AlignedArena::tryReserve first for a clean
/// diagnostic).
std::shared_ptr<BuddyPageBackend>
createBuddyBackend(size_t ReserveBytes, size_t PageBytes = 4096);

/// A span of memory that is either a slice of a BuddyPageBackend or a
/// private AlignedArena, released to its origin on destruction. Move-only.
class BackedSpan {
public:
  BackedSpan() = default;
  ~BackedSpan();
  BackedSpan(const BackedSpan &) = delete;
  BackedSpan &operator=(const BackedSpan &) = delete;
  BackedSpan(BackedSpan &&Other) noexcept;
  BackedSpan &operator=(BackedSpan &&Other) noexcept;

  /// Obtains \p Bytes aligned to \p Alignment from \p Backend, or from a
  /// fresh private arena when \p Backend is null. Aborts via fatal() on
  /// failure.
  static BackedSpan create(size_t Bytes, size_t Alignment,
                           const std::shared_ptr<BuddyPageBackend> &Backend);

  /// Non-fatal variant: std::nullopt with \p ErrorOut (if non-null) set on
  /// exhaustion, mmap failure, or a fired fault site (`page_acquire` for a
  /// backend span, `arena_map` for a private arena).
  static std::optional<BackedSpan>
  tryCreate(size_t Bytes, size_t Alignment,
            const std::shared_ptr<BuddyPageBackend> &Backend,
            std::string *ErrorOut = nullptr);

  std::byte *base() const { return Base; }
  size_t size() const { return Bytes; }
  bool contains(const void *Ptr) const {
    auto P = reinterpret_cast<uintptr_t>(Ptr);
    auto B = reinterpret_cast<uintptr_t>(Base);
    return P >= B && P < B + Bytes;
  }

private:
  std::optional<AlignedArena> Arena;         ///< Private path.
  std::shared_ptr<BuddyPageBackend> Backend; ///< Backend path.
  std::byte *Base = nullptr;
  size_t Bytes = 0;
};

} // namespace ddm

#endif // DDM_PAGE_PAGEBACKEND_H
