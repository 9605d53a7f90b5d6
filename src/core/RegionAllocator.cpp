//===- core/RegionAllocator.cpp - Bump-pointer region allocator ----------===//

#include "core/RegionAllocator.h"
#include "core/DeadMark.h"
#include "support/Error.h"
#include "support/FaultInjection.h"

#include <cassert>
#include <optional>

using namespace ddm;

namespace {

/// Bump allocation is a round, a compare, and an add.
constexpr uint64_t InstrMallocBump = 8;
constexpr uint64_t InstrMallocNewChunk = 64;
constexpr uint64_t InstrFreeAll = 24;

constexpr size_t alignUp8(size_t Size) { return (Size + 7) & ~size_t(7); }

} // namespace

RegionAllocator::RegionAllocator(const AllocatorOptions &Options)
    : ChunkBytes(Options.RegionChunkBytes), Backend(Options.Backend),
      FreeAllEpoch(takeFreeAllEpoch()) {
  assert(ChunkBytes >= 4096 && "chunk too small");
  Chunks.push_back(BackedSpan::create(ChunkBytes, 4096, Backend));
  Next = Chunks[0].base();
  Limit = Next + Chunks[0].size();
}

RegionAllocator::~RegionAllocator() {
  for (const BackedSpan &Chunk : Chunks)
    Sink.unmapRegion(Chunk.base());
  Sink.unmapRegion(this);
}

void *RegionAllocator::allocate(size_t Size) {
  size_t Rounded = alignUp8(Size ? Size : 1);
  // The bump pointer is the only metadata; mirror its update.
  Sink.load(&Next, sizeof(Next));
  if (Next + Rounded > Limit) {
    if (Rounded > ChunkBytes)
      return nullptr;
    if (CurrentChunk + 1 == Chunks.size()) {
      if (Chunks.size() >= MaxChunks ||
          faultShouldFail(FaultSite::ChunkAcquire))
        return nullptr;
      std::optional<BackedSpan> Chunk =
          BackedSpan::tryCreate(ChunkBytes, 4096, Backend);
      if (!Chunk)
        return nullptr;
      Chunks.push_back(std::move(*Chunk));
      Sink.mapRegion(Chunks.back().base(), Chunks.back().size());
    }
    // Commit the accounting only after the next chunk is secured: a failed
    // growth must leave memoryConsumption() unchanged.
    BytesInFullChunks += static_cast<uint64_t>(Next - Chunks[CurrentChunk].base());
    ++CurrentChunk;
    Next = Chunks[CurrentChunk].base();
    Limit = Next + Chunks[CurrentChunk].size();
    Sink.instructions(InstrMallocNewChunk);
  }
  void *Result = Next;
  Next += Rounded;
  Sink.store(&Next, sizeof(Next));
  Sink.instructions(InstrMallocBump);
  noteMalloc(Size, Rounded);
  return Result;
}

bool RegionAllocator::owns(const void *Ptr) const {
  auto *P = static_cast<const std::byte *>(Ptr);
  for (const BackedSpan &Chunk : Chunks)
    if (P >= Chunk.base() && P < Chunk.base() + Chunk.size())
      return true;
  return false;
}

void RegionAllocator::deallocate(void *Ptr) {
  // No per-object free: dead objects are reclaimed only by freeAll. The
  // paper's adaptation removes the runtime's free calls entirely, so no
  // instructions are charged here either. The region still validates the
  // call: a foreign pointer is misuse, and stamping an epoch-salted mark
  // into the (now dead) object catches double frees — the bump pointer
  // hands out each address at most once per epoch, and no two epochs of
  // any region heap in the process are equal, so a stale mark (this
  // heap's or a previous heap's on recycled pages) can never
  // false-positive.
  if (!Ptr)
    return;
  if (!owns(Ptr))
    fatal("region allocator: freed pointer is not from this heap");
  stampDeadMark(Ptr, FreeAllEpoch, "a region object");
  ++Stats.FreeCalls;
}

void *RegionAllocator::reallocate(void *Ptr, size_t OldSize, size_t NewSize) {
  return reallocateBumped(Ptr, OldSize, NewSize, InstrMallocBump);
}

void RegionAllocator::freeAll() {
  // Under a page backend the growth chunks go back to the page economy so
  // reclaim is measurable; the legacy private chunks stay reserved.
  if (Backend) {
    while (Chunks.size() > 1) {
      Sink.unmapRegion(Chunks.back().base());
      Chunks.pop_back();
    }
  }
  CurrentChunk = 0;
  Next = Chunks[0].base();
  Limit = Next + Chunks[0].size();
  BytesInFullChunks = 0;
  FreeAllEpoch = takeFreeAllEpoch();
  Sink.store(&Next, sizeof(Next));
  Sink.instructions(InstrFreeAll);
  noteFreeAll();
}

size_t RegionAllocator::usableSize(const void *Ptr) const {
  // Headerless: per-object sizes are unknown.
  (void)Ptr;
  return 0;
}

uint64_t RegionAllocator::memoryConsumption() const {
  // Paper Figure 9: "the total amount of memory allocated during a
  // transaction for the region-based allocator".
  return BytesInFullChunks +
         static_cast<uint64_t>(Next - Chunks[CurrentChunk].base());
}
