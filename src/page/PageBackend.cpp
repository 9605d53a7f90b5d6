//===- page/PageBackend.cpp - Shared page-granular backing store ----------===//

#include "page/PageBackend.h"
#include "support/Error.h"
#include "support/FaultInjection.h"

#include <cassert>

using namespace ddm;

namespace {

/// Buddy order whose block satisfies \p Bytes at \p Alignment: big enough
/// for the size, and aligned blocks of it land on Alignment boundaries.
unsigned orderForRequest(size_t Bytes, size_t Alignment, size_t PageBytes) {
  size_t Pages = (Bytes + PageBytes - 1) / PageBytes;
  if (Pages == 0)
    Pages = 1;
  unsigned Order = BuddyAllocator::orderFor(Pages);
  unsigned AlignOrder = 0;
  while ((PageBytes << AlignOrder) < Alignment)
    ++AlignOrder;
  return Order < AlignOrder ? AlignOrder : Order;
}

unsigned maxOrderFor(size_t NumPages) {
  // One block can span the whole reservation, so any acquire that fits
  // the arena is satisfiable when the backend is idle.
  unsigned Order = BuddyAllocator::orderFor(NumPages);
  return Order < 24 ? Order : 24;
}

size_t checkedPageBytes(size_t PageBytes) {
  if (PageBytes < 256 || (PageBytes & (PageBytes - 1)) != 0)
    fatal("buddy backend page size must be a power of two >= 256");
  return PageBytes;
}

} // namespace

BuddyPageBackend::BuddyPageBackend(size_t ReserveBytes, size_t PageSize)
    : PageBytes(checkedPageBytes(PageSize)),
      Arena(ReserveBytes,
            ReserveBytes >= MaxAlignment ? MaxAlignment : PageSize),
      Buddy(Arena.size() / PageBytes, maxOrderFor(Arena.size() / PageBytes)),
      LivePage(Arena.size() / PageBytes),
      ResidentPage(Arena.size() / PageBytes) {}

std::byte *BuddyPageBackend::acquire(size_t Bytes, size_t Alignment) {
  if (Alignment == 0)
    Alignment = PageBytes;
  if (Alignment > MaxAlignment || Alignment > Arena.size())
    fatal("buddy backend cannot guarantee this alignment");
  if (faultShouldFail(FaultSite::PageAcquire))
    return nullptr;
  unsigned Order = orderForRequest(Bytes, Alignment, PageBytes);
  std::lock_guard<std::mutex> Lock(M);
  if (Order > Buddy.maxOrder())
    return nullptr; // Larger than the whole reservation can supply.
  uint32_t First = Buddy.allocPages(Order);
  if (First == BuddyAllocator::NoPage)
    return nullptr;
  uint64_t Pages = uint64_t(1) << Order;
  PagesAcquired += Pages;
  PagesLive += Pages;
  if (PagesLive > PeakPagesLive)
    PeakPagesLive = PagesLive;
  if (First + Pages > PagesTouched)
    PagesTouched = First + Pages;
  for (uint64_t P = First; P < First + Pages; ++P) {
    LivePage[P] = 1;
    if (!ResidentPage[P]) {
      ResidentPage[P] = 1;
      ++ResidentPages;
    }
  }
  if (ResidentPages > PeakResidentPages)
    PeakResidentPages = ResidentPages;
  return Arena.base() + size_t(First) * PageBytes;
}

void BuddyPageBackend::release(std::byte *Ptr, size_t Bytes) {
  if (!Ptr)
    return;
  assert(Arena.contains(Ptr) && "span not from this backend");
  uint32_t First =
      static_cast<uint32_t>((Ptr - Arena.base()) / PageBytes);
  std::lock_guard<std::mutex> Lock(M);
  uint8_t Order = Buddy.allocatedOrderAt(First);
  if (Order == BuddyAllocator::NoOrder)
    fatal("buddy backend release of a span it did not hand out");
  uint64_t Pages = uint64_t(1) << Order;
  if (Bytes > Pages * PageBytes)
    fatal("buddy backend release with a size larger than the span");
  Buddy.freePages(First, Order);
  PagesReclaimed += Pages;
  PagesLive -= Pages;
  // The pages stay resident: free memory is not returned to the OS until
  // adviseOut() models the madvise.
  for (uint64_t P = First; P < First + Pages; ++P)
    LivePage[P] = 0;
}

uint64_t BuddyPageBackend::adviseOut() {
  std::lock_guard<std::mutex> Lock(M);
  uint64_t Dropped = 0;
  for (size_t P = 0; P < PagesTouched; ++P) {
    if (ResidentPage[P] && !LivePage[P]) {
      ResidentPage[P] = 0;
      ++Dropped;
    }
  }
  ResidentPages -= Dropped;
  AdvisedOutPages += Dropped;
  return Dropped * PageBytes;
}

size_t BuddyPageBackend::residentBookkeepingBytes() const {
  std::lock_guard<std::mutex> Lock(M);
  return LivePage.residentBytes() + ResidentPage.residentBytes() +
         Buddy.residentBookkeepingBytes();
}

PageBackendStats BuddyPageBackend::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  PageBackendStats S;
  S.PagesAcquired = PagesAcquired;
  S.PagesReclaimed = PagesReclaimed;
  S.PagesLive = PagesLive;
  S.PeakPagesLive = PeakPagesLive;
  S.FreePages = Buddy.freePageCount();
  S.LargestFreeRunPages = Buddy.largestFreeBlockPages();
  S.Splits = Buddy.totalSplits();
  S.Coalesces = Buddy.totalCoalesces();
  S.ResidentPages = ResidentPages;
  S.PeakResidentPages = PeakResidentPages;
  S.AdvisedOutPages = AdvisedOutPages;
  S.PageBytes = PageBytes;
  return S;
}

std::shared_ptr<BuddyPageBackend>
ddm::createBuddyBackend(size_t ReserveBytes, size_t PageBytes) {
  return std::make_shared<BuddyPageBackend>(ReserveBytes, PageBytes);
}

BackedSpan::~BackedSpan() {
  if (Backend && Base)
    Backend->release(Base, Bytes);
}

BackedSpan::BackedSpan(BackedSpan &&Other) noexcept
    : Arena(std::move(Other.Arena)), Backend(std::move(Other.Backend)),
      Base(Other.Base), Bytes(Other.Bytes) {
  Other.Backend = nullptr;
  Other.Base = nullptr;
  Other.Bytes = 0;
}

BackedSpan &BackedSpan::operator=(BackedSpan &&Other) noexcept {
  if (this != &Other) {
    if (Backend && Base)
      Backend->release(Base, Bytes);
    Arena = std::move(Other.Arena);
    Backend = std::move(Other.Backend);
    Base = Other.Base;
    Bytes = Other.Bytes;
    Other.Backend = nullptr;
    Other.Base = nullptr;
    Other.Bytes = 0;
  }
  return *this;
}

BackedSpan
BackedSpan::create(size_t Bytes, size_t Alignment,
                   const std::shared_ptr<BuddyPageBackend> &Backend) {
  std::string Error;
  std::optional<BackedSpan> Span = tryCreate(Bytes, Alignment, Backend,
                                             &Error);
  if (!Span)
    fatal("cannot obtain a backed span: " + Error);
  return std::move(*Span);
}

std::optional<BackedSpan>
BackedSpan::tryCreate(size_t Bytes, size_t Alignment,
                      const std::shared_ptr<BuddyPageBackend> &Backend,
                      std::string *ErrorOut) {
  BackedSpan Span;
  if (Backend) {
    std::byte *Base = Backend->acquire(Bytes, Alignment);
    if (!Base) {
      if (ErrorOut)
        *ErrorOut = "buddy page backend exhausted (or page_acquire fired) "
                    "for " + std::to_string(Bytes) + " bytes";
      return std::nullopt;
    }
    Span.Backend = Backend;
    Span.Base = Base;
    Span.Bytes = Bytes;
    return Span;
  }
  std::string Error;
  std::optional<AlignedArena> Arena =
      AlignedArena::tryReserve(Bytes, Alignment, &Error);
  if (!Arena) {
    if (ErrorOut)
      *ErrorOut = Error;
    return std::nullopt;
  }
  Span.Arena = std::move(Arena);
  Span.Base = Span.Arena->base();
  Span.Bytes = Span.Arena->size();
  return Span;
}
