//===- page/SlabAllocator.cpp - Slab caches over a buddy heap -------------===//

#include "page/SlabAllocator.h"
#include "support/Error.h"
#include "support/FaultInjection.h"

#include <cassert>

using namespace ddm;

namespace {

constexpr uint64_t InstrMagazineAlloc = 10;
constexpr uint64_t InstrMagazineFree = 10;
constexpr uint64_t InstrRefillBase = 40;
constexpr uint64_t InstrRefillPerObject = 6;
constexpr uint64_t InstrFlushBase = 40;
constexpr uint64_t InstrFlushPerObject = 7;
constexpr uint64_t InstrGrowBase = 90;
constexpr uint64_t InstrGrowPerObject = 3;
constexpr uint64_t InstrLargeAlloc = 80;
constexpr uint64_t InstrLargeFree = 70;
constexpr uint64_t InstrReap = 50;

/// The slab heap's standard class map (must match the allocator's).
constexpr size_t MaxSmallBytes = 8 * 1024;

unsigned buddyOrderFor(size_t NumPages) {
  unsigned Order = BuddyAllocator::orderFor(NumPages);
  return Order < 24 ? Order : 24;
}

void notePagesTaken(SlabCentral &C, uint64_t Pages) {
  C.PagesLive += Pages;
  C.PagesAcquiredTotal += Pages;
  if (C.PagesLive > C.PeakPagesLive)
    C.PeakPagesLive = C.PagesLive;
}

void notePagesReturned(SlabCentral &C, uint64_t Pages) {
  C.PagesLive -= Pages;
  C.PagesReturnedTotal += Pages;
}

} // namespace

SlabCentral::SlabCentral(size_t HeapReserveBytes, unsigned NumClasses,
                         bool IsShared,
                         const std::shared_ptr<BuddyPageBackend> &Backend)
    : SharedCentral(IsShared),
      Heap(BackedSpan::create(HeapReserveBytes, PageBytes, Backend)),
      NumPages(Heap.size() / PageBytes),
      Buddy(NumPages, buddyOrderFor(NumPages)),
      Map(Heap.base(), PageBytes, NumPages) {
  SizeClassMap Classes(MaxSmallBytes);
  if (Classes.numClasses() != NumClasses)
    fatal("slab central was built for a different class map");
  PartialHead.assign(NumClasses, NoSlab);
  EmptySlab.assign(NumClasses, NoSlab);
  SlabOrder.assign(NumClasses, 0);
  SlabCapacity.assign(NumClasses, 0);
  for (unsigned Class = 0; Class < NumClasses; ++Class) {
    size_t ObjectSize = Classes.classSize(Class);
    // Smallest slab that fits at least 8 objects, capped at MaxSlabOrder
    // (the biggest classes get whatever the cap holds).
    unsigned Order = 0;
    while (Order < MaxSlabOrder &&
           ((PageBytes << Order) - ObjectsOffset) / ObjectSize < 8)
      ++Order;
    uint32_t Capacity = static_cast<uint32_t>(
        ((PageBytes << Order) - ObjectsOffset) / ObjectSize);
    if (Capacity == 0)
      fatal("slab class does not fit one object per slab");
    SlabOrder[Class] = static_cast<uint8_t>(Order);
    SlabCapacity[Class] = Capacity;
  }
}

std::shared_ptr<SlabCentral> ddm::createSlabCentral(size_t HeapReserveBytes) {
  SizeClassMap Classes(MaxSmallBytes);
  return std::make_shared<SlabCentral>(HeapReserveBytes, Classes.numClasses(),
                                       /*IsShared=*/true);
}

SlabAllocator::SlabAllocator(const AllocatorOptions &Options)
    : Classes(MaxSmallBytes),
      Central(std::dynamic_pointer_cast<SlabCentral>(Options.Shared)) {
  unsigned NumClasses = Classes.numClasses();
  if (Central) {
    if (Central->PartialHead.size() != NumClasses)
      fatal("slab shared central was built for a different class map");
  } else {
    Central = std::make_shared<SlabCentral>(Options.HeapReserveBytes,
                                            NumClasses, /*IsShared=*/false,
                                            Options.Backend);
  }
  MagSlots.assign(size_t(NumClasses) * MagazineCapacity, 0);
  MagCount.assign(NumClasses, 0);
}

SlabAllocator::~SlabAllocator() {
  if (Central->Shared) {
    // A destroyed magazine set (e.g. a Ruby-style process restart) returns
    // its stock to the central slabs so sibling threads can reuse it;
    // objects still live at destruction stay lost, like the pages of a
    // really-restarted process.
    auto Lock = Central->lock();
    for (unsigned Class = 0, End = Classes.numClasses(); Class != End;
         ++Class) {
      uintptr_t *Slots = &MagSlots[size_t(Class) * MagazineCapacity];
      while (MagCount[Class] > 0) {
        --MagCount[Class];
        auto *Object = reinterpret_cast<std::byte *>(Slots[MagCount[Class]]);
        centralFree(Object, slabHeadFor(Central->Map.pageOf(Object)), Class);
      }
    }
  }
  Sink.unmapRegion(Central->Map.data());
  Sink.unmapRegion(MagCount.data());
  Sink.unmapRegion(MagSlots.data());
  Sink.unmapRegion(Central->Heap.base());
}

void SlabAllocator::attachSink(AccessSink *S) {
  Central->checkSink(S, "slab magazines");
  TxAllocator::attachSink(S);
  Sink.mapRegion(Central->Heap.base(), Central->Heap.size());
  Sink.mapRegion(MagSlots.data(), MagSlots.size() * sizeof(uintptr_t));
  Sink.mapRegion(MagCount.data(), MagCount.size() * sizeof(uint32_t));
  Sink.mapRegion(Central->Map.data(), Central->Map.size());
}

uint32_t SlabAllocator::slabHeadFor(size_t Page) const {
  // Slabs span at most 2^MaxSlabOrder pages, so this back-scan is bounded.
  while (Central->Map[Page] == PageSlabCont)
    --Page;
  return static_cast<uint32_t>(Page);
}

void SlabAllocator::linkPartial(uint32_t HeadPage, unsigned Class) {
  SlabHeader *H = headerAt(HeadPage);
  H->NextSlab = Central->PartialHead[Class];
  H->PrevSlab = NoSlab;
  if (H->NextSlab != NoSlab)
    headerAt(H->NextSlab)->PrevSlab = HeadPage;
  Central->PartialHead[Class] = HeadPage;
  Sink.store(H, sizeof(SlabHeader));
}

void SlabAllocator::unlinkPartial(uint32_t HeadPage, unsigned Class) {
  SlabHeader *H = headerAt(HeadPage);
  if (H->PrevSlab != NoSlab)
    headerAt(H->PrevSlab)->NextSlab = H->NextSlab;
  else
    Central->PartialHead[Class] = H->NextSlab;
  if (H->NextSlab != NoSlab)
    headerAt(H->NextSlab)->PrevSlab = H->PrevSlab;
  H->NextSlab = NoSlab;
  H->PrevSlab = NoSlab;
  Sink.store(H, sizeof(SlabHeader));
}

bool SlabAllocator::growClass(unsigned Class) {
  if (faultShouldFail(FaultSite::SlabGrow))
    return false;
  unsigned Order = Central->SlabOrder[Class];
  uint32_t First = Central->Buddy.allocPages(Order);
  if (First == BuddyAllocator::NoPage)
    return false;
  notePagesTaken(*Central, uint64_t(1) << Order);

  Central->Map.mark(First, size_t(1) << Order, static_cast<uint8_t>(Class),
                    PageSlabCont, Sink);

  size_t ObjectSize = Classes.classSize(Class);
  uint32_t Capacity = Central->SlabCapacity[Class];
  std::byte *Slab = Central->Map.pageBase(First);
  for (uint32_t I = 0; I < Capacity; ++I) {
    auto Off = static_cast<uint32_t>(SlabCentral::ObjectsOffset +
                                     size_t(I) * ObjectSize);
    uint32_t NextOff =
        I + 1 < Capacity ? static_cast<uint32_t>(Off + ObjectSize) : 0;
    *reinterpret_cast<uint32_t *>(Slab + Off) = NextOff;
    Sink.store(Slab + Off, sizeof(uint32_t));
  }

  SlabHeader *H = headerAt(First);
  H->FreeHead = static_cast<uint32_t>(SlabCentral::ObjectsOffset);
  H->InUse = 0;
  H->ClassId = Class;
  H->NextSlab = NoSlab;
  H->PrevSlab = NoSlab;
  Sink.store(H, sizeof(SlabHeader));
  linkPartial(First, Class);
  ++Central->SlabsCreated;
  Sink.instructions(InstrGrowBase + InstrGrowPerObject * Capacity);
  return true;
}

std::byte *SlabAllocator::takeObject(unsigned Class) {
  if (Central->PartialHead[Class] == NoSlab) {
    if (Central->EmptySlab[Class] != NoSlab) {
      uint32_t Head = Central->EmptySlab[Class];
      Central->EmptySlab[Class] = NoSlab;
      linkPartial(Head, Class);
    } else if (!growClass(Class)) {
      return nullptr;
    }
  }
  uint32_t Head = Central->PartialHead[Class];
  SlabHeader *H = headerAt(Head);
  Sink.load(H, sizeof(SlabHeader));
  uint32_t Off = H->FreeHead;
  std::byte *Object = Central->Map.pageBase(Head) + Off;
  H->FreeHead = *reinterpret_cast<uint32_t *>(Object);
  Sink.load(Object, sizeof(uint32_t));
  ++H->InUse;
  Sink.store(H, sizeof(SlabHeader));
  if (H->FreeHead == 0)
    unlinkPartial(Head, Class); // Now full; frees rediscover it via the map.
  return Object;
}

void SlabAllocator::reapSlab(uint32_t HeadPage, unsigned Class) {
  unsigned Order = Central->SlabOrder[Class];
  Central->Map.clear(HeadPage, size_t(1) << Order, Sink);
  Central->Buddy.freePages(HeadPage, Order);
  notePagesReturned(*Central, uint64_t(1) << Order);
  ++Central->SlabsReaped;
  Sink.instructions(InstrReap);
}

void SlabAllocator::centralFree(std::byte *Object, uint32_t HeadPage,
                                unsigned Class) {
  SlabHeader *H = headerAt(HeadPage);
  bool WasFull = H->FreeHead == 0;
  *reinterpret_cast<uint32_t *>(Object) = H->FreeHead;
  Sink.store(Object, sizeof(uint32_t));
  H->FreeHead = static_cast<uint32_t>(Object - Central->Map.pageBase(HeadPage));
  --H->InUse;
  Sink.store(H, sizeof(SlabHeader));
  if (H->InUse == 0) {
    // Empty: keep one reserve per class, reap the rest to the buddy.
    if (!WasFull)
      unlinkPartial(HeadPage, Class);
    if (Central->EmptySlab[Class] == NoSlab)
      Central->EmptySlab[Class] = HeadPage;
    else
      reapSlab(HeadPage, Class);
    return;
  }
  if (WasFull)
    linkPartial(HeadPage, Class);
}

void SlabAllocator::refillMagazine(unsigned Class) {
  auto Lock = Central->lock();
  uintptr_t *Slots = &MagSlots[size_t(Class) * MagazineCapacity];
  unsigned Got = 0;
  while (Got < RefillBatch) {
    std::byte *Object = takeObject(Class);
    if (!Object)
      break;
    Slots[MagCount[Class]] = reinterpret_cast<uintptr_t>(Object);
    Sink.store(&Slots[MagCount[Class]], sizeof(uintptr_t));
    ++MagCount[Class];
    ++Got;
  }
  if (Got > 0)
    Sink.instructions(InstrRefillBase + InstrRefillPerObject * Got);
}

void SlabAllocator::flushMagazine(unsigned Class, unsigned Keep) {
  auto Lock = Central->lock();
  uintptr_t *Slots = &MagSlots[size_t(Class) * MagazineCapacity];
  uint64_t Moved = 0;
  while (MagCount[Class] > Keep) {
    --MagCount[Class];
    auto *Object = reinterpret_cast<std::byte *>(Slots[MagCount[Class]]);
    Sink.load(&Slots[MagCount[Class]], sizeof(uintptr_t));
    centralFree(Object, slabHeadFor(Central->Map.pageOf(Object)), Class);
    ++Moved;
  }
  Sink.instructions(InstrFlushBase + InstrFlushPerObject * Moved);
}

void *SlabAllocator::allocateSmall(size_t Size) {
  unsigned Class = Classes.classFor(Size);
  size_t ObjectSize = Classes.classSize(Class);
  Sink.load(&MagCount[Class], sizeof(uint32_t));
  if (MagCount[Class] == 0) {
    refillMagazine(Class);
    if (MagCount[Class] == 0)
      return nullptr;
  }
  --MagCount[Class];
  uintptr_t *Slot =
      &MagSlots[size_t(Class) * MagazineCapacity + MagCount[Class]];
  Sink.load(Slot, sizeof(uintptr_t));
  Sink.store(&MagCount[Class], sizeof(uint32_t));
  Sink.instructions(InstrMagazineAlloc);
  noteMalloc(Size, ObjectSize);
  return reinterpret_cast<void *>(*Slot);
}

void *SlabAllocator::allocateLarge(size_t Size) {
  size_t Pages = (Size + PageBytes - 1) / PageBytes;
  unsigned Order = BuddyAllocator::orderFor(Pages);
  auto Lock = Central->lock();
  if (faultShouldFail(FaultSite::SlabGrow))
    return nullptr;
  if (Order > Central->Buddy.maxOrder())
    return nullptr;
  uint32_t First = Central->Buddy.allocPages(Order);
  if (First == BuddyAllocator::NoPage)
    return nullptr;
  notePagesTaken(*Central, uint64_t(1) << Order);
  Central->Map.markLarge(First, size_t(1) << Order, Sink);
  Sink.instructions(InstrLargeAlloc);
  noteMalloc(Size, size_t(PageBytes) << Order);
  return Central->Map.pageBase(First);
}

void *SlabAllocator::allocate(size_t Size) {
  if (Classes.isSmall(Size))
    return allocateSmall(Size);
  return allocateLarge(Size);
}

void SlabAllocator::deallocate(void *Ptr) {
  if (!Ptr)
    return;
  // Fatal (not assert): a bad free would corrupt the magazine or the page
  // economy silently, so the checks hold in every build type.
  if (!owns(Ptr))
    fatal("slab allocator: freed pointer not from this heap");
  size_t Page = Central->Map.pageOf(Ptr);
  // Reading the page map entry of a live object needs no lock even on a
  // shared central: the slab cannot be reaped while any of its objects is
  // live, and the object reached this thread through the central-lock
  // happens-before chain.
  uint8_t Mark = Central->Map.markForFree(Page, Sink, "slab allocator");

  if (Mark == PageMap::LargeStart) {
    // The boundary scan needs the lock (PageMap::largeRunPages), so the
    // whole large path locks.
    auto Lock = Central->lock();
    size_t Pages = Central->Map.largeRunPages(Page);
    noteFree(Pages * PageBytes);
    Central->Map.clear(Page, Pages, Sink);
    Central->Buddy.freePages(static_cast<uint32_t>(Page),
                             BuddyAllocator::orderFor(Pages));
    notePagesReturned(*Central, Pages);
    Sink.instructions(InstrLargeFree);
    return;
  }

  uint32_t Head =
      Mark == PageSlabCont ? slabHeadFor(Page) : static_cast<uint32_t>(Page);
  unsigned Class = Central->Map[Head];
  size_t ObjectSize = Classes.classSize(Class);
  if (MagCount[Class] == MagazineCapacity)
    flushMagazine(Class, MagazineCapacity / 2);
  // Catch the common double free for one compare: an immediate re-free
  // finds itself on top of the magazine.
  if (MagCount[Class] > 0 &&
      MagSlots[size_t(Class) * MagazineCapacity + MagCount[Class] -
               1] == reinterpret_cast<uintptr_t>(Ptr))
    fatal("heap corruption detected: double free (object already tops its "
          "slab magazine)");
  uintptr_t *Slot =
      &MagSlots[size_t(Class) * MagazineCapacity + MagCount[Class]];
  *Slot = reinterpret_cast<uintptr_t>(Ptr);
  Sink.store(Slot, sizeof(uintptr_t));
  ++MagCount[Class];
  Sink.store(&MagCount[Class], sizeof(uint32_t));
  Sink.instructions(InstrMagazineFree);
  noteFree(ObjectSize);
}

size_t SlabAllocator::usableSize(const void *Ptr) const {
  assert(Ptr && owns(Ptr) && "bad pointer");
  size_t Page = Central->Map.pageOf(Ptr);
  uint8_t Mark = Central->Map[Page];
  assert(Mark != PageMap::Unused && Mark != PageMap::LargeCont &&
         "not an object");
  if (Mark == PageMap::LargeStart) {
    auto Lock = Central->lock();
    return Central->Map.largeRunPages(Page) * PageBytes;
  }
  uint32_t Head =
      Mark == PageSlabCont ? slabHeadFor(Page) : static_cast<uint32_t>(Page);
  return Classes.classSize(Central->Map[Head]);
}

void *SlabAllocator::reallocate(void *Ptr, size_t OldSize, size_t NewSize) {
  return reallocateInClass(Ptr, OldSize, NewSize, Classes, InstrMagazineAlloc);
}

void SlabAllocator::freeAll() {
  unreachable("the slab allocator has no bulk free; restart the process");
}

uint64_t SlabAllocator::memoryConsumption() const {
  auto Lock = Central->lock();
  return Central->PeakPagesLive * PageBytes;
}

uint64_t SlabAllocator::shrink() {
  auto Lock = Central->lock();
  uint64_t Before = Central->PagesReturnedTotal;
  for (unsigned Class = 0, End = Classes.numClasses(); Class != End;
       ++Class) {
    if (Central->EmptySlab[Class] == NoSlab)
      continue;
    uint32_t Head = Central->EmptySlab[Class];
    Central->EmptySlab[Class] = NoSlab;
    reapSlab(Head, Class);
  }
  return Central->PagesReturnedTotal - Before;
}

size_t SlabAllocator::partialSlabCount(unsigned Class) const {
  auto Lock = Central->lock();
  size_t Count = 0;
  for (uint32_t At = Central->PartialHead[Class]; At != NoSlab;
       At = headerAt(At)->NextSlab)
    ++Count;
  return Count;
}

bool SlabAllocator::hasEmptyReserve(unsigned Class) const {
  auto Lock = Central->lock();
  return Central->EmptySlab[Class] != NoSlab;
}

PageBackendStats SlabAllocator::pageStats() const {
  auto Lock = Central->lock();
  PageBackendStats S;
  S.PagesAcquired = Central->PagesAcquiredTotal;
  S.PagesReclaimed = Central->PagesReturnedTotal;
  S.PagesLive = Central->PagesLive;
  S.PeakPagesLive = Central->PeakPagesLive;
  S.FreePages = Central->Buddy.freePageCount();
  S.LargestFreeRunPages = Central->Buddy.largestFreeBlockPages();
  S.Splits = Central->Buddy.totalSplits();
  S.Coalesces = Central->Buddy.totalCoalesces();
  S.PageBytes = PageBytes;
  return S;
}
