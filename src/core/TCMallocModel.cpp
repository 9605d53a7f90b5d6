//===- core/TCMallocModel.cpp - Thread-caching malloc model --------------===//

#include "core/TCMallocModel.h"
#include "support/Error.h"

#include <cassert>
#include <cstring>

using namespace ddm;

namespace {

constexpr uint64_t InstrMallocFast = 14;
constexpr uint64_t InstrFreeFast = 14;
constexpr uint64_t InstrRefillBase = 40;
constexpr uint64_t InstrRefillPerObject = 5;
constexpr uint64_t InstrCarveSpanBase = 60;
constexpr uint64_t InstrCarvePerObject = 4;
constexpr uint64_t InstrScavengeBase = 80;
constexpr uint64_t InstrScavengePerObject = 6;
constexpr uint64_t InstrLargeAlloc = 80;
constexpr uint64_t InstrLargeFree = 70;

/// Objects moved from a central list to the thread cache per refill.
constexpr unsigned RefillBatch = 32;

} // namespace

TCMallocCentral::TCMallocCentral(size_t HeapReserveBytes, unsigned NumClasses,
                                 bool IsShared)
    : Heap(HeapReserveBytes, PageSize), Shared(IsShared) {
  NumPages = Heap.size() / PageSize;
  CentralHead.assign(NumClasses, 0);
  CentralCount.assign(NumClasses, 0);
  PageMap.assign(NumPages, PageUnused);
}

std::shared_ptr<TCMallocCentral>
ddm::createTCMallocCentral(size_t HeapReserveBytes) {
  SizeClassMap Classes(16 * 1024); // Must match the allocator's map.
  return std::make_shared<TCMallocCentral>(HeapReserveBytes,
                                           Classes.numClasses(), true);
}

TCMallocModelAllocator::TCMallocModelAllocator(const AllocatorOptions &Options)
    : Classes(16 * 1024),
      Central(std::dynamic_pointer_cast<TCMallocCentral>(Options.Shared)) {
  unsigned NumClasses = Classes.numClasses();
  if (Central) {
    if (Central->CentralHead.size() != NumClasses)
      fatal("tcmalloc shared central was built for a different class map");
  } else {
    Central =
        std::make_shared<TCMallocCentral>(Options.HeapReserveBytes, NumClasses,
                                          /*IsShared=*/false);
  }
  CacheHead.assign(NumClasses, 0);
  CacheCount.assign(NumClasses, 0);
}

TCMallocModelAllocator::~TCMallocModelAllocator() {
  if (Central->Shared) {
    // A destroyed cache (e.g. a Ruby-style process restart) returns its
    // free-list stock to the central lists so sibling caches can reuse
    // it; objects still live at destruction stay lost, like the pages of
    // a really-restarted process.
    std::lock_guard<std::mutex> Lock(Central->M);
    for (unsigned Class = 0, End = Classes.numClasses(); Class != End;
         ++Class) {
      while (CacheHead[Class] != 0) {
        uintptr_t Node = CacheHead[Class];
        CacheHead[Class] = *reinterpret_cast<uintptr_t *>(Node);
        *reinterpret_cast<uintptr_t *>(Node) = Central->CentralHead[Class];
        Central->CentralHead[Class] = Node;
        ++Central->CentralCount[Class];
      }
    }
  }
  Sink.unmapRegion(Central->PageMap.data());
  Sink.unmapRegion(CacheHead.data());
  Sink.unmapRegion(Central->Heap.base());
}

void TCMallocModelAllocator::attachSink(AccessSink *S) {
  if (Central->Shared && S)
    fatal("tcmalloc caches on a shared central cannot attach a simulation "
          "sink");
  TxAllocator::attachSink(S);
  Sink.mapRegion(Central->Heap.base(), Central->Heap.size());
  Sink.mapRegion(CacheHead.data(), CacheHead.size() * sizeof(uintptr_t));
  Sink.mapRegion(Central->PageMap.data(), Central->PageMap.size());
}

size_t TCMallocModelAllocator::takePages(size_t Pages) {
  // First fit over the free runs (the page-heap search).
  auto &FreeRuns = Central->FreeRuns;
  for (auto It = FreeRuns.begin(), End = FreeRuns.end(); It != End; ++It) {
    Sink.instructions(4);
    if (It->second < Pages)
      continue;
    size_t First = It->first;
    size_t RunLength = It->second;
    FreeRuns.erase(It);
    if (RunLength > Pages)
      FreeRuns.emplace(First + Pages, RunLength - Pages);
    return First;
  }
  if (Central->PageFrontier + Pages > Central->NumPages)
    return SIZE_MAX;
  size_t First = Central->PageFrontier;
  Central->PageFrontier += Pages;
  if (Central->PageFrontier > Central->HighWaterPages)
    Central->HighWaterPages = Central->PageFrontier;
  return First;
}

void TCMallocModelAllocator::releasePages(size_t FirstPage, size_t Pages) {
  auto &PageMap = Central->PageMap;
  auto &FreeRuns = Central->FreeRuns;
  for (size_t I = 0; I < Pages; ++I) {
    PageMap[FirstPage + I] = PageUnused;
    Sink.store(&PageMap[FirstPage + I], 1);
  }
  // Coalesce with the preceding and following runs (page-level
  // defragmentation).
  auto After = FreeRuns.lower_bound(FirstPage);
  if (After != FreeRuns.end() && After->first == FirstPage + Pages) {
    Pages += After->second;
    After = FreeRuns.erase(After);
    Sink.instructions(8);
  }
  if (After != FreeRuns.begin()) {
    auto Before = std::prev(After);
    if (Before->first + Before->second == FirstPage) {
      FirstPage = Before->first;
      Pages += Before->second;
      FreeRuns.erase(Before);
      Sink.instructions(8);
    }
  }
  FreeRuns.emplace(FirstPage, Pages);
}

void TCMallocModelAllocator::refillCache(unsigned Class) {
  size_t ObjectSize = Classes.classSize(Class);
  auto Lock = centralLock();

  // Move a batch from the central list if it has stock.
  unsigned Moved = 0;
  while (Central->CentralCount[Class] > 0 && Moved < RefillBatch) {
    uintptr_t Node = Central->CentralHead[Class];
    Sink.load(reinterpret_cast<void *>(Node), sizeof(uintptr_t));
    Central->CentralHead[Class] = *reinterpret_cast<uintptr_t *>(Node);
    --Central->CentralCount[Class];
    *reinterpret_cast<uintptr_t *>(Node) = CacheHead[Class];
    Sink.store(reinterpret_cast<void *>(Node), sizeof(uintptr_t));
    CacheHead[Class] = Node;
    ++CacheCount[Class];
    CacheBytes += ObjectSize;
    ++Moved;
  }
  if (Moved > 0) {
    Sink.instructions(InstrRefillBase + InstrRefillPerObject * Moved);
    return;
  }

  // Carve a fresh span into objects for this class.
  size_t First = takePages(SpanPages);
  if (First == SIZE_MAX)
    return; // Heap exhausted; allocate() will observe the empty cache.
  std::byte *Span = pageBase(First);
  for (size_t I = 0; I < SpanPages; ++I) {
    Central->PageMap[First + I] = static_cast<uint8_t>(Class);
    Sink.store(&Central->PageMap[First + I], 1);
  }
  size_t Objects = (SpanPages * PageSize) / ObjectSize;
  for (size_t I = 0; I < Objects; ++I) {
    std::byte *Object = Span + I * ObjectSize;
    *reinterpret_cast<uintptr_t *>(Object) = CacheHead[Class];
    Sink.store(Object, sizeof(uintptr_t));
    CacheHead[Class] = reinterpret_cast<uintptr_t>(Object);
  }
  CacheCount[Class] += static_cast<uint32_t>(Objects);
  CacheBytes += Objects * ObjectSize;
  Sink.instructions(InstrCarveSpanBase + InstrCarvePerObject * Objects);
}

void TCMallocModelAllocator::scavenge() {
  // The delayed defragmentation: move half of every thread-cache list back
  // to the central lists.
  ++Scavenges;
  auto Lock = centralLock();
  uint64_t MovedTotal = 0;
  for (unsigned Class = 0, End = Classes.numClasses(); Class != End; ++Class) {
    uint32_t ToMove = CacheCount[Class] / 2;
    size_t ObjectSize = Classes.classSize(Class);
    for (uint32_t I = 0; I < ToMove; ++I) {
      uintptr_t Node = CacheHead[Class];
      Sink.load(reinterpret_cast<void *>(Node), sizeof(uintptr_t));
      CacheHead[Class] = *reinterpret_cast<uintptr_t *>(Node);
      *reinterpret_cast<uintptr_t *>(Node) = Central->CentralHead[Class];
      Sink.store(reinterpret_cast<void *>(Node), sizeof(uintptr_t));
      Central->CentralHead[Class] = Node;
      ++Central->CentralCount[Class];
    }
    CacheCount[Class] -= ToMove;
    CacheBytes -= static_cast<uint64_t>(ToMove) * ObjectSize;
    MovedTotal += ToMove;
  }
  Sink.instructions(InstrScavengeBase + InstrScavengePerObject * MovedTotal);
}

void *TCMallocModelAllocator::allocateSmall(size_t Size) {
  unsigned Class = Classes.classFor(Size);
  size_t ObjectSize = Classes.classSize(Class);
  Sink.load(&CacheHead[Class], sizeof(uintptr_t));
  if (CacheHead[Class] == 0) {
    refillCache(Class);
    if (CacheHead[Class] == 0)
      return nullptr;
  }
  uintptr_t Node = CacheHead[Class];
  CacheHead[Class] = *reinterpret_cast<uintptr_t *>(Node);
  Sink.load(reinterpret_cast<void *>(Node), sizeof(uintptr_t));
  Sink.store(&CacheHead[Class], sizeof(uintptr_t));
  --CacheCount[Class];
  CacheBytes -= ObjectSize;
  Sink.instructions(InstrMallocFast);
  noteMalloc(Size, ObjectSize);
  return reinterpret_cast<void *>(Node);
}

void *TCMallocModelAllocator::allocateLarge(size_t Size) {
  size_t Pages = (Size + PageSize - 1) / PageSize;
  auto Lock = centralLock();
  size_t First = takePages(Pages);
  if (First == SIZE_MAX)
    return nullptr;
  auto &PageMap = Central->PageMap;
  PageMap[First] = PageLargeStart;
  Sink.store(&PageMap[First], 1);
  for (size_t I = 1; I < Pages; ++I) {
    PageMap[First + I] = PageLargeCont;
    Sink.store(&PageMap[First + I], 1);
  }
  Sink.instructions(InstrLargeAlloc);
  noteMalloc(Size, Pages * PageSize);
  return pageBase(First);
}

void *TCMallocModelAllocator::allocate(size_t Size) {
  if (Classes.isSmall(Size))
    return allocateSmall(Size);
  return allocateLarge(Size);
}

void TCMallocModelAllocator::deallocate(void *Ptr) {
  if (!Ptr)
    return;
  // Fatal (not assert): a bad free would corrupt the thread cache's free
  // lists silently, so the checks hold in every build type.
  if (!owns(Ptr))
    fatal("tcmalloc model: freed pointer not from this heap");
  size_t Page = pageIndexFor(Ptr);
  // Reading the page map entry of a live object needs no lock even on a
  // shared central: the entry cannot change while the object is live, and
  // the object reached this thread through the central-lock
  // happens-before chain.
  uint8_t Mark = Central->PageMap[Page];
  Sink.load(&Central->PageMap[Page], 1);
  if (Mark == PageUnused || Mark == PageLargeCont)
    fatal("tcmalloc model: bad free (double free of a large object or "
          "pointer into unallocated pages)");

  if (Mark == PageLargeStart) {
    // The boundary scan reads one entry past the run, which a sibling
    // cache may be writing concurrently, so the whole large path locks.
    auto Lock = centralLock();
    size_t Pages = 1;
    while (Page + Pages < Central->NumPages &&
           Central->PageMap[Page + Pages] == PageLargeCont)
      ++Pages;
    noteFree(Pages * PageSize);
    releasePages(Page, Pages);
    Sink.instructions(InstrLargeFree);
    return;
  }

  unsigned Class = Mark;
  size_t ObjectSize = Classes.classSize(Class);
  // Catch the common double free before it ties the cache list into a
  // cycle: an immediate re-free finds itself at the head.
  if (reinterpret_cast<uintptr_t>(Ptr) == CacheHead[Class])
    fatal("heap corruption detected: double free (object already heads "
          "its tcmalloc cache list)");
  *reinterpret_cast<uintptr_t *>(Ptr) = CacheHead[Class];
  Sink.store(Ptr, sizeof(uintptr_t));
  CacheHead[Class] = reinterpret_cast<uintptr_t>(Ptr);
  Sink.store(&CacheHead[Class], sizeof(uintptr_t));
  ++CacheCount[Class];
  CacheBytes += ObjectSize;
  Sink.instructions(InstrFreeFast);
  noteFree(ObjectSize);

  if (CacheBytes > ScavengeThresholdBytes)
    scavenge();
}

size_t TCMallocModelAllocator::usableSize(const void *Ptr) const {
  assert(Ptr && owns(Ptr) && "bad pointer");
  size_t Page = pageIndexFor(Ptr);
  uint8_t Mark = Central->PageMap[Page];
  assert(Mark != PageUnused && Mark != PageLargeCont && "not an object");
  if (Mark == PageLargeStart) {
    auto Lock = centralLock(); // Boundary scan; see deallocate().
    size_t Pages = 1;
    while (Page + Pages < Central->NumPages &&
           Central->PageMap[Page + Pages] == PageLargeCont)
      ++Pages;
    return Pages * PageSize;
  }
  return Classes.classSize(Mark);
}

void *TCMallocModelAllocator::reallocate(void *Ptr, size_t OldSize,
                                         size_t NewSize) {
  ++Stats.ReallocCalls;
  (void)OldSize;
  if (!Ptr)
    return allocate(NewSize);
  size_t OldUsable = usableSize(Ptr);
  if (NewSize <= OldUsable &&
      (!Classes.isSmall(NewSize) ||
       Classes.roundedSize(NewSize) == OldUsable)) {
    Sink.instructions(InstrMallocFast);
    return Ptr;
  }
  void *Fresh = allocate(NewSize);
  if (!Fresh)
    return nullptr;
  size_t CopyBytes = OldUsable < NewSize ? OldUsable : NewSize;
  std::memcpy(Fresh, Ptr, CopyBytes);
  Sink.copy(Ptr, Fresh, CopyBytes);
  Sink.instructions(CopyBytes / 16 + 8);
  deallocate(Ptr);
  return Fresh;
}

void TCMallocModelAllocator::freeAll() {
  unreachable("the TCmalloc model has no bulk free; restart the process");
}

uint64_t TCMallocModelAllocator::memoryConsumption() const {
  auto Lock = centralLock();
  return Central->HighWaterPages * PageSize;
}

size_t TCMallocModelAllocator::freeRunCount() const {
  auto Lock = centralLock();
  return Central->FreeRuns.size();
}
