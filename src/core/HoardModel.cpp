//===- core/HoardModel.cpp - Superblock allocator model ------------------===//

#include "core/HoardModel.h"
#include "support/Error.h"

#include <cassert>
#include <cstring>

using namespace ddm;

namespace {

constexpr uint64_t InstrMallocFast = 18;
constexpr uint64_t InstrFreeFast = 18;
constexpr uint64_t InstrAcquireSuperblock = 70;
constexpr uint64_t InstrListMove = 12;
constexpr uint64_t InstrLargeAlloc = 80;
constexpr uint64_t InstrLargeFree = 70;

} // namespace

HoardCentral::HoardCentral(size_t HeapReserveBytes, bool IsShared)
    : Heap(HeapReserveBytes, SuperblockBytes), Shared(IsShared) {
  NumSuperblocks = Heap.size() / SuperblockBytes;
  SbMap.assign(NumSuperblocks, 0);
}

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
    auto Lock = centralLock();
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
  Sink.unmapRegion(Central->SbMap.data());
  Sink.unmapRegion(Available.data());
  Sink.unmapRegion(Central->Heap.base());
}

void HoardModelAllocator::attachSink(AccessSink *S) {
  if (Central->Shared && S)
    fatal("hoard heaps on a shared central cannot attach a simulation sink");
  TxAllocator::attachSink(S);
  Sink.mapRegion(Central->Heap.base(), Central->Heap.size());
  Sink.mapRegion(Available.data(),
                 Available.size() * sizeof(SuperblockHeader *));
  Sink.mapRegion(Central->SbMap.data(), Central->SbMap.size());
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
    auto Lock = centralLock();
    Sb = Central->EmptyPool;
    if (Sb) {
      listRemove(Central->EmptyPool, Sb);
    } else {
      if (Central->Frontier >= Central->NumSuperblocks)
        return nullptr;
      Sb = reinterpret_cast<SuperblockHeader *>(
          Central->Heap.base() + Central->Frontier * SuperblockBytes);
      Central->SbMap[Central->Frontier] = SbSmall;
      Sink.store(&Central->SbMap[Central->Frontier], 1);
      ++Central->Frontier;
      if (Central->Frontier > Central->HighWaterSuperblocks)
        Central->HighWaterSuperblocks = Central->Frontier;
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
  auto Lock = centralLock();
  auto &FreeRuns = Central->FreeRuns;
  auto &SbMap = Central->SbMap;
  size_t First = SIZE_MAX;
  for (auto It = FreeRuns.begin(), End = FreeRuns.end(); It != End; ++It) {
    Sink.instructions(4);
    if (It->second < Blocks)
      continue;
    First = It->first;
    size_t RunLength = It->second;
    FreeRuns.erase(It);
    if (RunLength > Blocks)
      FreeRuns.emplace(First + Blocks, RunLength - Blocks);
    break;
  }
  if (First == SIZE_MAX) {
    if (Central->Frontier + Blocks > Central->NumSuperblocks)
      return nullptr;
    First = Central->Frontier;
    Central->Frontier += Blocks;
    if (Central->Frontier > Central->HighWaterSuperblocks)
      Central->HighWaterSuperblocks = Central->Frontier;
  }
  SbMap[First] = SbLargeStart;
  Sink.store(&SbMap[First], 1);
  for (size_t I = 1; I < Blocks; ++I) {
    SbMap[First + I] = SbLargeCont;
    Sink.store(&SbMap[First + I], 1);
  }
  Sink.instructions(InstrLargeAlloc);
  noteMalloc(Size, Blocks * SuperblockBytes);
  return Central->Heap.base() + First * SuperblockBytes;
}

void HoardModelAllocator::deallocate(void *Ptr) {
  if (!Ptr)
    return;
  // Fatal (not assert): a bad free would corrupt the superblock free
  // lists silently, so the checks hold in every build type.
  if (!owns(Ptr))
    fatal("hoard model: freed pointer not from this heap");
  size_t Index = sbIndexFor(Ptr);
  // A live object's map entry cannot change concurrently; see the
  // TCmalloc model's deallocate for the ordering argument.
  uint8_t Mark = Central->SbMap[Index];
  Sink.load(&Central->SbMap[Index], 1);
  if (Mark == SbUnused || Mark == SbLargeCont)
    fatal("hoard model: bad free (double free of a large object or "
          "pointer into unallocated superblocks)");

  if (Mark == SbLargeStart) {
    // The boundary scan reads one entry past the run, so the whole large
    // path locks on a shared central.
    auto Lock = centralLock();
    auto &SbMap = Central->SbMap;
    auto &FreeRuns = Central->FreeRuns;
    size_t Blocks = 1;
    while (Index + Blocks < Central->NumSuperblocks &&
           SbMap[Index + Blocks] == SbLargeCont)
      ++Blocks;
    noteFree(Blocks * SuperblockBytes);
    for (size_t I = 0; I < Blocks; ++I) {
      SbMap[Index + I] = SbUnused;
      Sink.store(&SbMap[Index + I], 1);
    }
    // Coalesce large runs like the page heap does.
    size_t First = Index;
    auto After = FreeRuns.lower_bound(First);
    if (After != FreeRuns.end() && After->first == First + Blocks) {
      Blocks += After->second;
      After = FreeRuns.erase(After);
    }
    if (After != FreeRuns.begin()) {
      auto Before = std::prev(After);
      if (Before->first + Before->second == First) {
        First = Before->first;
        Blocks += Before->second;
        FreeRuns.erase(Before);
      }
    }
    FreeRuns.emplace(First, Blocks);
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
    auto Lock = centralLock();
    listPush(Central->EmptyPool, Sb);
  }
}

size_t HoardModelAllocator::usableSize(const void *Ptr) const {
  assert(Ptr && owns(Ptr) && "bad pointer");
  size_t Index = sbIndexFor(Ptr);
  uint8_t Mark = Central->SbMap[Index];
  assert(Mark != SbUnused && Mark != SbLargeCont && "not an object");
  if (Mark == SbLargeStart) {
    auto Lock = centralLock(); // Boundary scan; see deallocate().
    size_t Blocks = 1;
    while (Index + Blocks < Central->NumSuperblocks &&
           Central->SbMap[Index + Blocks] == SbLargeCont)
      ++Blocks;
    return Blocks * SuperblockBytes;
  }
  return Classes.classSize(headerFor(Ptr)->ClassIndex);
}

void *HoardModelAllocator::reallocate(void *Ptr, size_t OldSize,
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

void HoardModelAllocator::freeAll() {
  unreachable("the Hoard model has no bulk free; restart the process");
}

uint64_t HoardModelAllocator::emptyPoolSize() const {
  auto Lock = centralLock();
  uint64_t Count = 0;
  for (SuperblockHeader *Sb = Central->EmptyPool; Sb; Sb = Sb->Next)
    ++Count;
  return Count;
}

uint64_t HoardModelAllocator::superblocksInUse() const {
  auto Lock = centralLock();
  return Central->Frontier;
}

uint64_t HoardModelAllocator::memoryConsumption() const {
  auto Lock = centralLock();
  return Central->HighWaterSuperblocks * SuperblockBytes;
}
