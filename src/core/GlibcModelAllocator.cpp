//===- core/GlibcModelAllocator.cpp - glibc malloc model -----------------===//

#include "core/GlibcModelAllocator.h"
#include "support/Error.h"

#include <cassert>

using namespace ddm;

GlibcModelAllocator::GlibcModelAllocator(const AllocatorOptions &Options)
    : Engine(Options.HeapReserveBytes, Options.Backend) {}

void *GlibcModelAllocator::allocate(size_t Size) {
  void *Ptr = Engine.malloc(Size);
  if (Ptr)
    noteMalloc(Size, Engine.usableSize(Ptr));
  return Ptr;
}

void GlibcModelAllocator::deallocate(void *Ptr) {
  if (!Ptr)
    return;
  noteFree(Engine.usableSize(Ptr));
  Engine.free(Ptr);
}

void *GlibcModelAllocator::reallocate(void *Ptr, size_t OldSize,
                                      size_t NewSize) {
  ++Stats.ReallocCalls;
  (void)OldSize;
  if (!Ptr)
    return allocate(NewSize);
  size_t OldUsable = Engine.usableSize(Ptr);
  void *Fresh = Engine.realloc(Ptr, NewSize);
  if (!Fresh)
    return nullptr;
  Stats.UsableBytesLive += Engine.usableSize(Fresh) - OldUsable;
  if (Stats.UsableBytesLive > Stats.PeakUsableBytesLive)
    Stats.PeakUsableBytesLive = Stats.UsableBytesLive;
  return Fresh;
}

void GlibcModelAllocator::freeAll() {
  unreachable("the glibc model has no bulk free; restart the process");
}

size_t GlibcModelAllocator::usableSize(const void *Ptr) const {
  return Engine.usableSize(Ptr);
}

uint64_t GlibcModelAllocator::memoryConsumption() const {
  // glibc grows the heap in sbrk/mmap steps; model 128 KB granularity.
  constexpr uint64_t GrowthStep = 128 * 1024;
  uint64_t Used = Engine.footprintBytes();
  return (Used + GrowthStep - 1) / GrowthStep * GrowthStep;
}
