//===- core/TCMallocModel.cpp - Thread-caching malloc model --------------===//

#include "core/TCMallocModel.h"
#include "support/Error.h"

#include <cassert>

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
/// Page-heap bookkeeping: per free run scanned, per neighbour merged.
constexpr uint64_t InstrRunScan = 4;
constexpr uint64_t InstrRunMerge = 8;

/// Objects moved from a central list to the thread cache per refill.
constexpr unsigned RefillBatch = 32;

} // namespace

TCMallocCentral::TCMallocCentral(size_t HeapReserveBytes, unsigned NumClasses,
                                 bool IsShared)
    : SharedCentral(IsShared), Heap(HeapReserveBytes, PageSize),
      Runs(Heap.size() / PageSize), CentralHead(NumClasses, 0),
      CentralCount(NumClasses, 0),
      Map(Heap.base(), PageSize, Heap.size() / PageSize) {}

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
    auto Lock = Central->lock();
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
  Sink.unmapRegion(Central->Map.data());
  Sink.unmapRegion(CacheHead.data());
  Sink.unmapRegion(Central->Heap.base());
}

void TCMallocModelAllocator::attachSink(AccessSink *S) {
  Central->checkSink(S, "tcmalloc caches");
  TxAllocator::attachSink(S);
  Sink.mapRegion(Central->Heap.base(), Central->Heap.size());
  Sink.mapRegion(CacheHead.data(), CacheHead.size() * sizeof(uintptr_t));
  Sink.mapRegion(Central->Map.data(), Central->Map.size());
}

size_t TCMallocModelAllocator::takePages(size_t Pages) {
  FreeRunList::Take T = Central->Runs.take(Pages);
  if (T.Scanned)
    Sink.instructions(InstrRunScan * T.Scanned);
  return T.First;
}

void TCMallocModelAllocator::refillCache(unsigned Class) {
  size_t ObjectSize = Classes.classSize(Class);
  auto Lock = Central->lock();

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
  if (First == FreeRunList::NoRun)
    return; // Heap exhausted; allocate() will observe the empty cache.
  std::byte *Span = Central->Map.pageBase(First);
  auto Mark = static_cast<uint8_t>(Class);
  Central->Map.mark(First, SpanPages, Mark, Mark, Sink);
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
  auto Lock = Central->lock();
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
  auto Lock = Central->lock();
  size_t First = takePages(Pages);
  if (First == FreeRunList::NoRun)
    return nullptr;
  Central->Map.markLarge(First, Pages, Sink);
  Sink.instructions(InstrLargeAlloc);
  noteMalloc(Size, Pages * PageSize);
  return Central->Map.pageBase(First);
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
  size_t Page = Central->Map.pageOf(Ptr);
  // Reading the page map entry of a live object needs no lock even on a
  // shared central: the entry cannot change while the object is live, and
  // the object reached this thread through the central-lock
  // happens-before chain.
  uint8_t Mark = Central->Map.markForFree(Page, Sink, "tcmalloc model");

  if (Mark == PageMap::LargeStart) {
    // The boundary scan needs the lock (PageMap::largeRunPages), so the
    // whole large path locks.
    auto Lock = Central->lock();
    size_t Pages = Central->Map.largeRunPages(Page);
    noteFree(Pages * PageSize);
    Central->Map.clear(Page, Pages, Sink);
    if (unsigned Merges = Central->Runs.release(Page, Pages))
      Sink.instructions(InstrRunMerge * Merges);
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
  size_t Page = Central->Map.pageOf(Ptr);
  uint8_t Mark = Central->Map[Page];
  assert(Mark != PageMap::Unused && Mark != PageMap::LargeCont &&
         "not an object");
  if (Mark == PageMap::LargeStart) {
    auto Lock = Central->lock();
    return Central->Map.largeRunPages(Page) * PageSize;
  }
  return Classes.classSize(Mark);
}

void *TCMallocModelAllocator::reallocate(void *Ptr, size_t OldSize,
                                         size_t NewSize) {
  return reallocateInClass(Ptr, OldSize, NewSize, Classes, InstrMallocFast);
}

void TCMallocModelAllocator::freeAll() {
  unreachable("the TCmalloc model has no bulk free; restart the process");
}

uint64_t TCMallocModelAllocator::memoryConsumption() const {
  auto Lock = Central->lock();
  return Central->Runs.frontier() * PageSize;
}
