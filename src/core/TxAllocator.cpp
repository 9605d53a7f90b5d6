//===- core/TxAllocator.cpp - Transaction-scoped allocator API -----------===//

#include "core/TxAllocator.h"
#include "core/SizeClasses.h"
#include "support/Error.h"

#include <cassert>

using namespace ddm;

// Out-of-line virtual-method anchor.
TxAllocator::~TxAllocator() = default;

void SharedCentral::checkSink(const AccessSink *S,
                              const char *FrontEnds) const {
  if (Shared && S)
    fatal(std::string(FrontEnds) +
          " on a shared central cannot attach a simulation sink");
}

void *TxAllocator::reallocateInClass(void *Ptr, size_t OldSize,
                                     size_t NewSize,
                                     const SizeClassMap &Classes,
                                     uint64_t InPlaceInstructions) {
  ++Stats.ReallocCalls;
  if (!Ptr)
    return allocate(NewSize);
  size_t OldUsable = usableSize(Ptr);
  assert(OldSize <= OldUsable && "old size exceeds the object's capacity");
  (void)OldSize;
  if (NewSize <= OldUsable &&
      (!Classes.isSmall(NewSize) ||
       Classes.roundedSize(NewSize) == OldUsable)) {
    Sink.instructions(InPlaceInstructions);
    return Ptr;
  }
  void *Fresh = allocate(NewSize);
  if (!Fresh)
    return nullptr;
  reallocCopy(Sink, Fresh, Ptr, OldUsable < NewSize ? OldUsable : NewSize);
  deallocate(Ptr);
  return Fresh;
}

void *TxAllocator::reallocateBumped(void *Ptr, size_t OldSize, size_t NewSize,
                                    uint64_t InPlaceInstructions) {
  ++Stats.ReallocCalls;
  if (!Ptr)
    return allocate(NewSize);
  size_t OldRounded = ((OldSize ? OldSize : 1) + 7) & ~size_t(7);
  if (NewSize <= OldRounded) {
    Sink.instructions(InPlaceInstructions);
    return Ptr;
  }
  void *Fresh = allocate(NewSize);
  if (!Fresh)
    return nullptr;
  reallocCopy(Sink, Fresh, Ptr, OldSize);
  return Fresh;
}
