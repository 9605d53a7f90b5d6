//===- core/ZendDefaultAllocator.cpp - PHP default allocator model -------===//

#include "core/ZendDefaultAllocator.h"

#include <cassert>

using namespace ddm;

ZendDefaultAllocator::ZendDefaultAllocator(const AllocatorOptions &Options)
    : Engine(Options.HeapReserveBytes, Options.Backend) {}

void *ZendDefaultAllocator::allocate(size_t Size) {
  void *Ptr = Engine.malloc(Size);
  if (Ptr)
    noteMalloc(Size, Engine.usableSize(Ptr));
  return Ptr;
}

void ZendDefaultAllocator::deallocate(void *Ptr) {
  if (!Ptr)
    return;
  noteFree(Engine.usableSize(Ptr));
  Engine.free(Ptr);
}

void *ZendDefaultAllocator::reallocate(void *Ptr, size_t OldSize,
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

void ZendDefaultAllocator::freeAll() {
  Engine.reset();
  noteFreeAll();
}

size_t ZendDefaultAllocator::usableSize(const void *Ptr) const {
  return Engine.usableSize(Ptr);
}

uint64_t ZendDefaultAllocator::memoryConsumption() const {
  // Paper Figure 9: "the amount of memory allocated from the underlying
  // memory allocator for the default allocator". The Zend MM obtains
  // 256 KB storage segments from the OS, so consumption has that
  // granularity.
  constexpr uint64_t StorageSegment = 256 * 1024;
  uint64_t Used = Engine.footprintBytes();
  return (Used + StorageSegment - 1) / StorageSegment * StorageSegment;
}
