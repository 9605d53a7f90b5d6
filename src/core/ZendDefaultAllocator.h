//===- core/ZendDefaultAllocator.h - PHP default allocator model *- C++ -*===//
///
/// \file
/// A model of the default allocator of the PHP runtime (the Zend memory
/// manager): a general-purpose, defragmenting heap — per-chunk headers,
/// coalescing on free, splitting on malloc (the paper notes "the default
/// allocator of the current PHP runtime ... also does coalescing and
/// splitting of objects") — that additionally supports bulk freeing: the
/// runtime discards the whole request-scoped heap at the end of every
/// transaction. This is the paper's baseline "general-purpose allocator
/// supporting bulk freeing" (Table 1, row 1).
///
//===----------------------------------------------------------------------===//

#ifndef DDM_CORE_ZENDDEFAULTALLOCATOR_H
#define DDM_CORE_ZENDDEFAULTALLOCATOR_H

#include "core/BoundaryTagHeap.h"
#include "core/TxAllocator.h"

namespace ddm {

/// The defragmenting default allocator of the PHP runtime.
class ZendDefaultAllocator : public TxAllocator {
public:
  /// Reads HeapReserveBytes and Backend (null: a private arena).
  explicit ZendDefaultAllocator(
      const AllocatorOptions &Options = AllocatorOptions());

  void *allocate(size_t Size) override;
  void deallocate(void *Ptr) override;
  void *reallocate(void *Ptr, size_t OldSize, size_t NewSize) override;
  void freeAll() override;
  bool supportsPerObjectFree() const override { return true; }
  bool supportsBulkFree() const override { return true; }
  size_t usableSize(const void *Ptr) const override;
  const char *name() const override { return "default"; }
  uint64_t memoryConsumption() const override;

  /// The defragmentation-work counters (coalesces, splits, bin searches).
  const DefragActivity &defragActivity() const {
    return Engine.defragActivity();
  }
  /// Heap-consistency check for the tests.
  bool verifyHeap() const { return Engine.verify(); }
  bool owns(const void *Ptr) const override { return Engine.owns(Ptr); }

  void attachSink(AccessSink *S) override {
    TxAllocator::attachSink(S);
    Engine.attachSink(S);
  }

private:
  BoundaryTagHeap Engine;
};

} // namespace ddm

#endif // DDM_CORE_ZENDDEFAULTALLOCATOR_H
