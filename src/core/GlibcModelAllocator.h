//===- core/GlibcModelAllocator.h - glibc malloc model ---------*- C++ -*-===//
///
/// \file
/// A model of glibc's malloc for the Ruby study (paper Section 4.4): the
/// same boundary-tag, binned, coalescing engine as the Zend model, but with
/// no bulk-free capability — the heap lives until the process restarts.
/// This is the paper's baseline for comparing DDmalloc against allocators
/// that support only the malloc-free interface.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_CORE_GLIBCMODELALLOCATOR_H
#define DDM_CORE_GLIBCMODELALLOCATOR_H

#include "core/BoundaryTagHeap.h"
#include "core/TxAllocator.h"

namespace ddm {

/// Construction-time knobs for GlibcModelAllocator.
struct GlibcConfig {
  size_t HeapReserveBytes = 512ull * 1024 * 1024;
  /// Draw the heap span from this page backend; null = private arena.
  std::shared_ptr<PageBackend> Backend;
};

/// glibc-malloc model: defragmenting, no bulk free.
class GlibcModelAllocator : public TxAllocator {
public:
  explicit GlibcModelAllocator(const GlibcConfig &Config = GlibcConfig());

  void *allocate(size_t Size) override;
  void deallocate(void *Ptr) override;
  void *reallocate(void *Ptr, size_t OldSize, size_t NewSize) override;
  /// Not supported: programs restart the process instead.
  void freeAll() override;
  bool supportsPerObjectFree() const override { return true; }
  bool supportsBulkFree() const override { return false; }
  size_t usableSize(const void *Ptr) const override;
  const char *name() const override { return "glibc"; }
  uint64_t memoryConsumption() const override;

  const DefragActivity &defragActivity() const {
    return Engine.defragActivity();
  }
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

#endif // DDM_CORE_GLIBCMODELALLOCATOR_H
