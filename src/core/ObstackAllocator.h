//===- core/ObstackAllocator.h - GNU-obstack-style regions -----*- C++ -*-===//
///
/// \file
/// A region allocator in the style of GNU obstack, which the paper
/// evaluated as an alternative region-based allocator (Section 4.1) and
/// found slower than its own large-chunk region allocator. The differences
/// this model captures: obstack grows in small chunks (4 KB by default)
/// with a per-chunk header, pays an alignment mask plus a chunk-limit check
/// on every allocation, and crosses chunk boundaries far more often than a
/// 256 MB region does.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_CORE_OBSTACKALLOCATOR_H
#define DDM_CORE_OBSTACKALLOCATOR_H

#include "core/TxAllocator.h"
#include "page/PageBackend.h"
#include "support/Arena.h"

#include <memory>
#include <vector>

namespace ddm {

/// Construction-time knobs for ObstackAllocator.
struct ObstackConfig {
  /// Size of each chunk including its header. GNU obstack defaults to 4 KB.
  size_t ChunkBytes = 4096;

  /// Total budget of address space (the backing arena).
  size_t HeapReserveBytes = 512ull * 1024 * 1024;

  /// Draw the backing span from this page backend instead of a private
  /// arena; null keeps the legacy private reservation.
  std::shared_ptr<PageBackend> Backend;
};

/// Obstack-style region allocator: chunked bump allocation, no per-object
/// free, freeAll rewinds to the first chunk.
class ObstackAllocator : public TxAllocator {
public:
  explicit ObstackAllocator(const ObstackConfig &Config = ObstackConfig());
  ~ObstackAllocator() override;

  void *allocate(size_t Size) override;
  void deallocate(void *Ptr) override;
  void *reallocate(void *Ptr, size_t OldSize, size_t NewSize) override;
  void freeAll() override;

  /// Registers the backing arena and the bump-pointer metadata (a member
  /// of this object) with the sink's canonical address map.
  void attachSink(AccessSink *S) override {
    TxAllocator::attachSink(S);
    Sink.mapRegion(this, sizeof(*this));
    Sink.mapRegion(Heap.base(), Heap.size());
  }

  bool supportsPerObjectFree() const override { return false; }
  bool supportsBulkFree() const override { return true; }
  size_t usableSize(const void *Ptr) const override { (void)Ptr; return 0; }
  bool owns(const void *Ptr) const override;
  const char *name() const override { return "obstack"; }
  uint64_t memoryConsumption() const override;

  size_t numChunksUsed() const { return ChunkIndex + 1; }

private:
  /// Header at the start of every chunk, as in GNU obstack.
  struct ChunkHeader {
    std::byte *Limit;
    ChunkHeader *Prev;
  };

  /// Moves to a fresh chunk big enough for \p Rounded payload bytes.
  bool startNewChunk(size_t Rounded);

  ObstackConfig Config;
  BackedSpan Heap;
  std::byte *ArenaNext = nullptr; ///< Bump within the backing arena.
  ChunkHeader *Current = nullptr;
  std::byte *Next = nullptr;
  std::byte *Limit = nullptr;
  size_t ChunkIndex = 0;
  uint64_t BytesAllocated = 0; ///< Since the last freeAll.
  /// Incremented by every freeAll; salts the double-free dead mark (see
  /// deallocate()) so marks from earlier epochs never false-positive.
  uint64_t FreeAllEpoch = 0;
};

} // namespace ddm

#endif // DDM_CORE_OBSTACKALLOCATOR_H
