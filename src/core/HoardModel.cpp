//===- core/HoardModel.cpp - Superblock allocator model ------------------===//

#include "core/HoardModel.h"
#include "support/Error.h"

#include <cassert>

using namespace ddm;

namespace {

constexpr uint64_t InstrMallocFast = 18;
constexpr uint64_t InstrFreeFast = 18;
constexpr uint64_t InstrAcquireSuperblock = 70;
constexpr uint64_t InstrListMove = 12;
constexpr uint64_t InstrLargeAlloc = 80;
constexpr uint64_t InstrLargeFree = 70;
/// Per free run the large-object first-fit search scans.
constexpr uint64_t InstrRunScan = 4;

} // namespace

HoardCentral::HoardCentral(size_t HeapReserveBytes, bool IsShared)
    : SharedCentral(IsShared), Heap(HeapReserveBytes, SuperblockBytes),
      Runs(Heap.size() / SuperblockBytes),
      Map(Heap.base(), SuperblockBytes, Heap.size() / SuperblockBytes) {}

std::shared_ptr<HoardCentral> ddm::createHoardCentral(size_t HeapReserveBytes) {
  return std::make_shared<HoardCentral>(HeapReserveBytes, /*IsShared=*/true);
}

HoardModelAllocator::HoardModelAllocator(const AllocatorOptions &Options)
    : Classes(16 * 1024),
      Central(std::dynamic_pointer_cast<HoardCentral>(Options.Shared)) {
  static_assert(sizeof(SuperblockHeader) <= ObjectsOffset,
                "superblock header must fit in its pad");
  if (!Central)
    Central = std::make_shared<HoardCentral>(Options.HeapReserveBytes,
                                             /*IsShared=*/false);
  Available.assign(Classes.numClasses(), nullptr);
}

HoardModelAllocator::~HoardModelAllocator() {
  if (Central->Shared) {
    // A destroyed heap (e.g. a Ruby-style process restart) donates its
    // fully empty superblocks to the global pool; partially used ones
    // stay lost, like the pages of a really-restarted process.
    auto Lock = Central->lock();
    for (SuperblockHeader *&Head : Available) {
      SuperblockHeader *Sb = Head;
      while (Sb) {
        SuperblockHeader *Next = Sb->Next;
        if (Sb->Used == 0) {
          listRemove(Head, Sb);
          listPush(Central->EmptyPool, Sb);
        }
        Sb = Next;
      }
    }
  }
  Sink.unmapRegion(Central->Map.data());
  Sink.unmapRegion(Available.data());
  Sink.unmapRegion(Central->Heap.base());
}

void HoardModelAllocator::attachSink(AccessSink *S) {
  Central->checkSink(S, "hoard heaps");
  TxAllocator::attachSink(S);
  Sink.mapRegion(Central->Heap.base(), Central->Heap.size());
  Sink.mapRegion(Available.data(),
                 Available.size() * sizeof(SuperblockHeader *));
  Sink.mapRegion(Central->Map.data(), Central->Map.size());
}

void HoardModelAllocator::listPush(SuperblockHeader *&Head,
                                   SuperblockHeader *Sb) {
  Sb->Next = Head;
  Sb->Prev = nullptr;
  if (Head)
    Head->Prev = Sb;
  Head = Sb;
  Sink.store(Sb, sizeof(SuperblockHeader));
  Sink.instructions(InstrListMove);
}

void HoardModelAllocator::listRemove(SuperblockHeader *&Head,
                                     SuperblockHeader *Sb) {
  if (Sb->Prev)
    Sb->Prev->Next = Sb->Next;
  else
    Head = Sb->Next;
  if (Sb->Next)
    Sb->Next->Prev = Sb->Prev;
  Sink.store(Sb, sizeof(SuperblockHeader));
  Sink.instructions(InstrListMove);
}

HoardModelAllocator::SuperblockHeader *
HoardModelAllocator::acquireSuperblock(unsigned Class) {
  SuperblockHeader *Sb;
  {
    auto Lock = Central->lock();
    Sb = Central->EmptyPool;
    if (Sb) {
      listRemove(Central->EmptyPool, Sb);
    } else {
      // Frontier only: freed large runs are never re-purposed here.
      size_t Index = Central->Runs.takeFresh(1).First;
      if (Index == FreeRunList::NoRun)
        return nullptr;
      Sb = reinterpret_cast<SuperblockHeader *>(Central->Map.pageBase(Index));
      Central->Map.mark(Index, 1, SbSmall, SbSmall, Sink);
    }
  }
  size_t ObjectSize = Classes.classSize(Class);
  Sb->ClassIndex = Class;
  Sb->Used = 0;
  Sb->FreeHead = 0;
  Sb->BumpNext = reinterpret_cast<std::byte *>(Sb) + ObjectsOffset;
  Sb->BumpRemaining =
      static_cast<uint32_t>((SuperblockBytes - ObjectsOffset) / ObjectSize);
  Sink.store(Sb, sizeof(SuperblockHeader));
  Sink.instructions(InstrAcquireSuperblock);
  listPush(Available[Class], Sb);
  return Sb;
}

void *HoardModelAllocator::allocate(size_t Size) {
  if (!Classes.isSmall(Size))
    return allocateLarge(Size);

  unsigned Class = Classes.classFor(Size);
  size_t ObjectSize = Classes.classSize(Class);
  SuperblockHeader *Sb = Available[Class];
  Sink.load(&Available[Class], sizeof(void *));
  if (!Sb) {
    Sb = acquireSuperblock(Class);
    if (!Sb)
      return nullptr;
  }

  void *Result;
  Sink.load(Sb, sizeof(SuperblockHeader));
  if (Sb->FreeHead != 0) {
    Result = reinterpret_cast<void *>(Sb->FreeHead);
    Sb->FreeHead = *reinterpret_cast<uintptr_t *>(Result);
    Sink.load(Result, sizeof(uintptr_t));
  } else {
    assert(Sb->BumpRemaining > 0 && "available superblock has no space");
    Result = Sb->BumpNext;
    Sb->BumpNext += ObjectSize;
    --Sb->BumpRemaining;
  }
  ++Sb->Used;
  Sink.store(Sb, sizeof(SuperblockHeader));
  Sink.instructions(InstrMallocFast);

  // A superblock with no free space leaves the available list so malloc
  // never scans full blocks.
  if (Sb->FreeHead == 0 && Sb->BumpRemaining == 0)
    listRemove(Available[Class], Sb);

  noteMalloc(Size, ObjectSize);
  return Result;
}

void *HoardModelAllocator::allocateLarge(size_t Size) {
  size_t Blocks = (Size + SuperblockBytes - 1) / SuperblockBytes;
  auto Lock = Central->lock();
  FreeRunList::Take T = Central->Runs.take(Blocks);
  if (T.Scanned)
    Sink.instructions(InstrRunScan * T.Scanned);
  if (T.First == FreeRunList::NoRun)
    return nullptr;
  Central->Map.markLarge(T.First, Blocks, Sink);
  Sink.instructions(InstrLargeAlloc);
  noteMalloc(Size, Blocks * SuperblockBytes);
  return Central->Map.pageBase(T.First);
}

void HoardModelAllocator::deallocate(void *Ptr) {
  if (!Ptr)
    return;
  // Fatal (not assert): a bad free would corrupt the superblock free
  // lists silently, so the checks hold in every build type.
  if (!owns(Ptr))
    fatal("hoard model: freed pointer not from this heap");
  size_t Index = Central->Map.pageOf(Ptr);
  // A live object's map entry cannot change concurrently; see the
  // TCmalloc model's deallocate for the ordering argument.
  uint8_t Mark = Central->Map.markForFree(Index, Sink, "hoard model");

  if (Mark == PageMap::LargeStart) {
    // The boundary scan needs the lock (PageMap::largeRunPages), so the
    // whole large path locks.
    auto Lock = Central->lock();
    size_t Blocks = Central->Map.largeRunPages(Index);
    noteFree(Blocks * SuperblockBytes);
    Central->Map.clear(Index, Blocks, Sink);
    Central->Runs.release(Index, Blocks); // Merges are not charged here.
    Sink.instructions(InstrLargeFree);
    return;
  }

  SuperblockHeader *Sb = headerFor(Ptr);
  Sink.load(Sb, sizeof(SuperblockHeader));
  unsigned Class = Sb->ClassIndex;
  bool WasFull = Sb->FreeHead == 0 && Sb->BumpRemaining == 0;

  // Catch the common double free before it ties the superblock's free
  // list into a cycle: an immediate re-free finds itself at the head.
  if (reinterpret_cast<uintptr_t>(Ptr) == Sb->FreeHead)
    fatal("heap corruption detected: double free (object already heads "
          "its hoard superblock free list)");
  *reinterpret_cast<uintptr_t *>(Ptr) = Sb->FreeHead;
  Sink.store(Ptr, sizeof(uintptr_t));
  Sb->FreeHead = reinterpret_cast<uintptr_t>(Ptr);
  --Sb->Used;
  Sink.store(Sb, sizeof(SuperblockHeader));
  Sink.instructions(InstrFreeFast);
  noteFree(Classes.classSize(Class));

  if (WasFull) {
    // The block regained space: back onto the available list.
    listPush(Available[Class], Sb);
  } else if (Sb->Used == 0) {
    // Emptiness management: fully empty superblocks return to the global
    // pool and can be re-purposed for any class (by any thread; the lock
    // release publishes this thread's writes to the next owner).
    listRemove(Available[Class], Sb);
    auto Lock = Central->lock();
    listPush(Central->EmptyPool, Sb);
  }
}

size_t HoardModelAllocator::usableSize(const void *Ptr) const {
  assert(Ptr && owns(Ptr) && "bad pointer");
  size_t Index = Central->Map.pageOf(Ptr);
  uint8_t Mark = Central->Map[Index];
  assert(Mark != PageMap::Unused && Mark != PageMap::LargeCont &&
         "not an object");
  if (Mark == PageMap::LargeStart) {
    auto Lock = Central->lock();
    return Central->Map.largeRunPages(Index) * SuperblockBytes;
  }
  return Classes.classSize(headerFor(Ptr)->ClassIndex);
}

void *HoardModelAllocator::reallocate(void *Ptr, size_t OldSize,
                                      size_t NewSize) {
  return reallocateInClass(Ptr, OldSize, NewSize, Classes, InstrMallocFast);
}

void HoardModelAllocator::freeAll() {
  unreachable("the Hoard model has no bulk free; restart the process");
}

uint64_t HoardModelAllocator::emptyPoolSize() const {
  auto Lock = Central->lock();
  uint64_t Count = 0;
  for (SuperblockHeader *Sb = Central->EmptyPool; Sb; Sb = Sb->Next)
    ++Count;
  return Count;
}

uint64_t HoardModelAllocator::superblocksInUse() const {
  auto Lock = Central->lock();
  return Central->Runs.frontier();
}

uint64_t HoardModelAllocator::memoryConsumption() const {
  auto Lock = Central->lock();
  return Central->Runs.frontier() * SuperblockBytes;
}
