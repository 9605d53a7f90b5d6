//===- core/ObstackAllocator.cpp - GNU-obstack-style regions -------------===//

#include "core/ObstackAllocator.h"
#include "core/DeadMark.h"
#include "support/Error.h"
#include "support/FaultInjection.h"

#include <cassert>

using namespace ddm;

namespace {

/// Obstack's growing-object protocol costs a few more instructions per
/// allocation than a bare bump: alignment mask, limit check, header access.
constexpr uint64_t InstrMallocBump = 14;
constexpr uint64_t InstrNewChunk = 90;
constexpr uint64_t InstrFreeAll = 40;

/// Size of each chunk including its header. GNU obstack defaults to 4 KB.
constexpr size_t ChunkBytes = 4096;

constexpr size_t alignUp8(size_t Size) { return (Size + 7) & ~size_t(7); }

} // namespace

ObstackAllocator::ObstackAllocator(const AllocatorOptions &Options)
    : Heap(BackedSpan::create(Options.HeapReserveBytes, 4096, Options.Backend)),
      FreeAllEpoch(takeFreeAllEpoch()) {
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
  size_t Payload = ChunkBytes - sizeof(ChunkHeader);
  size_t ChunkSize = ChunkBytes;
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
  // silently.
  if (!Ptr)
    return;
  if (!owns(Ptr))
    fatal("obstack allocator: freed pointer is not from this heap");
  stampDeadMark(Ptr, FreeAllEpoch, "an obstack object");
  ++Stats.FreeCalls;
}

void *ObstackAllocator::reallocate(void *Ptr, size_t OldSize, size_t NewSize) {
  return reallocateBumped(Ptr, OldSize, NewSize, InstrMallocBump);
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
  FreeAllEpoch = takeFreeAllEpoch();
  Sink.instructions(InstrFreeAll);
  noteFreeAll();
}

uint64_t ObstackAllocator::memoryConsumption() const {
  return static_cast<uint64_t>(ArenaNext - Heap.base());
}
