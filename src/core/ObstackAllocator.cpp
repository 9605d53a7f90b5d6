//===- core/ObstackAllocator.cpp - GNU-obstack-style regions -------------===//

#include "core/ObstackAllocator.h"
#include "support/Error.h"
#include "support/FaultInjection.h"

#include <cassert>
#include <cstring>

using namespace ddm;

namespace {

/// Obstack's growing-object protocol costs a few more instructions per
/// allocation than a bare bump: alignment mask, limit check, header access.
constexpr uint64_t InstrMallocBump = 14;
constexpr uint64_t InstrNewChunk = 90;
constexpr uint64_t InstrFreeAll = 40;

constexpr size_t alignUp8(size_t Size) { return (Size + 7) & ~size_t(7); }

/// splitmix64 finalizer, for the dead-object mark.
uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

} // namespace

ObstackAllocator::ObstackAllocator(const ObstackConfig &C)
    : Config(C), Heap(BackedSpan::create(C.HeapReserveBytes, 4096, C.Backend)) {
  assert(Config.ChunkBytes >= 256 && "chunk too small");
  ArenaNext = Heap.base();
  ChunkIndex = 0;
  bool Ok = startNewChunk(0);
  (void)Ok;
  assert(Ok && "initial chunk must fit");
  ChunkIndex = 0;
}

ObstackAllocator::~ObstackAllocator() {
  Sink.unmapRegion(Heap.base());
  Sink.unmapRegion(this);
}

bool ObstackAllocator::startNewChunk(size_t Rounded) {
  size_t Payload = Config.ChunkBytes - sizeof(ChunkHeader);
  size_t ChunkSize = Config.ChunkBytes;
  if (Rounded > Payload)
    ChunkSize = alignUp8(Rounded + sizeof(ChunkHeader));
  if (ArenaNext + ChunkSize > Heap.base() + Heap.size())
    return false;
  auto *Header = reinterpret_cast<ChunkHeader *>(ArenaNext);
  Header->Limit = ArenaNext + ChunkSize;
  Header->Prev = Current;
  Sink.store(Header, sizeof(ChunkHeader));
  Current = Header;
  Next = ArenaNext + sizeof(ChunkHeader);
  Limit = Header->Limit;
  ArenaNext += ChunkSize;
  ++ChunkIndex;
  return true;
}

void *ObstackAllocator::allocate(size_t Size) {
  size_t Rounded = alignUp8(Size ? Size : 1);
  Sink.load(&Next, sizeof(Next));
  if (Next + Rounded > Limit) {
    // The fault check lives here, not in startNewChunk: the constructor and
    // the freeAll rewind also call startNewChunk and must never fail.
    if (faultShouldFail(FaultSite::ChunkAcquire) || !startNewChunk(Rounded))
      return nullptr;
    Sink.instructions(InstrNewChunk);
  }
  void *Result = Next;
  Next += Rounded;
  Sink.store(&Next, sizeof(Next));
  Sink.instructions(InstrMallocBump);
  BytesAllocated += Rounded;
  noteMalloc(Size, Rounded);
  return Result;
}

bool ObstackAllocator::owns(const void *Ptr) const {
  auto *P = static_cast<const std::byte *>(Ptr);
  return P >= Heap.base() && P < Heap.base() + Heap.size();
}

void ObstackAllocator::deallocate(void *Ptr) {
  // No per-object free (freeAll rewinds), but the call is still validated
  // like the region allocator's: range-check the pointer and stamp an
  // epoch-salted dead mark so double frees abort instead of passing
  // silently. Addresses recur only after a freeAll, which bumps the epoch.
  if (!Ptr)
    return;
  if (!owns(Ptr))
    fatal("obstack allocator: freed pointer is not from this heap");
  auto *Mark = reinterpret_cast<uint64_t *>(Ptr);
  uint64_t Dead = mix64(reinterpret_cast<uintptr_t>(Ptr) ^
                        FreeAllEpoch * 0x9e3779b97f4a7c15ull ^ 0xdead0b5eull);
  if (*Mark == Dead)
    fatal("heap corruption detected: double free of an obstack object");
  *Mark = Dead;
  ++Stats.FreeCalls;
}

void *ObstackAllocator::reallocate(void *Ptr, size_t OldSize, size_t NewSize) {
  ++Stats.ReallocCalls;
  if (!Ptr)
    return allocate(NewSize);
  size_t OldRounded = alignUp8(OldSize ? OldSize : 1);
  if (NewSize <= OldRounded) {
    Sink.instructions(InstrMallocBump);
    return Ptr;
  }
  void *Fresh = allocate(NewSize);
  if (!Fresh)
    return nullptr;
  std::memcpy(Fresh, Ptr, OldSize);
  Sink.copy(Ptr, Fresh, OldSize);
  Sink.instructions(OldSize / 16 + 8);
  return Fresh;
}

void ObstackAllocator::freeAll() {
  // Rewind to the first chunk. (GNU obstack would also return the later
  // chunks to malloc; our chunks come from one arena, so rewinding the
  // arena bump achieves the same.)
  ArenaNext = Heap.base();
  Current = nullptr;
  ChunkIndex = 0;
  bool Ok = startNewChunk(0);
  (void)Ok;
  assert(Ok && "rewind cannot fail");
  ChunkIndex = 0;
  BytesAllocated = 0;
  ++FreeAllEpoch;
  Sink.instructions(InstrFreeAll);
  noteFreeAll();
}

uint64_t ObstackAllocator::memoryConsumption() const {
  return static_cast<uint64_t>(ArenaNext - Heap.base());
}
