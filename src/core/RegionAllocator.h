//===- core/RegionAllocator.h - Bump-pointer region allocator --*- C++ -*-===//
///
/// \file
/// The region-based allocator of the paper's Section 4.1: it obtains a
/// 256 MB chunk of memory at startup and serves allocations by rounding the
/// request up to a multiple of 8 bytes and bumping a pointer. There is no
/// per-object free (deallocate is a no-op, matching the paper's adaptation
/// that removes free calls), no headers, and no metadata beyond the bump
/// pointer; freeAll resets the pointer to the start of the first chunk.
/// When a chunk fills up the next chunk is obtained; the paper notes one
/// chunk is almost always enough for a PHP transaction.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_CORE_REGIONALLOCATOR_H
#define DDM_CORE_REGIONALLOCATOR_H

#include "core/TxAllocator.h"
#include "page/PageBackend.h"
#include "support/Arena.h"

#include <memory>
#include <vector>

namespace ddm {

/// Construction-time knobs for RegionAllocator.
struct RegionConfig {
  /// Size of each chunk obtained from the OS. The paper uses 256 MB.
  size_t ChunkBytes = 256ull * 1024 * 1024;

  /// Upper bound on chunks; exceeding it makes allocate return nullptr.
  size_t MaxChunks = 8;

  /// Draw chunks from this page backend instead of private arenas. With a
  /// backend, freeAll also returns every chunk beyond the first to the
  /// page economy (the legacy private chunks stay reserved), which is what
  /// makes region reclaim measurable per restart period.
  std::shared_ptr<PageBackend> Backend;
};

/// The non-freeing region-based allocator.
class RegionAllocator : public TxAllocator {
public:
  explicit RegionAllocator(const RegionConfig &Config = RegionConfig());
  ~RegionAllocator() override;

  void *allocate(size_t Size) override;
  void deallocate(void *Ptr) override;
  void *reallocate(void *Ptr, size_t OldSize, size_t NewSize) override;
  void freeAll() override;

  /// Registers the chunks and the bump-pointer metadata (a member of this
  /// object) with the sink's canonical address map.
  void attachSink(AccessSink *S) override {
    TxAllocator::attachSink(S);
    Sink.mapRegion(this, sizeof(*this));
    for (const BackedSpan &Chunk : Chunks)
      Sink.mapRegion(Chunk.base(), Chunk.size());
  }

  bool supportsPerObjectFree() const override { return false; }
  bool supportsBulkFree() const override { return true; }
  size_t usableSize(const void *Ptr) const override;
  const char *name() const override { return "region"; }
  uint64_t memoryConsumption() const override;

  /// Number of chunks obtained from the OS so far.
  size_t numChunks() const { return Chunks.size(); }

private:
  /// True if \p Ptr lies inside one of the region's chunks.
  bool owns(const void *Ptr) const override;
  /// The free-epoch stamp written into a dead object's first word; see
  /// deallocate().
  uint64_t deadMark(const void *Ptr) const;

  RegionConfig Config;
  std::vector<BackedSpan> Chunks;
  size_t CurrentChunk = 0;
  /// Next free byte within the current chunk.
  std::byte *Next = nullptr;
  /// End of the current chunk.
  std::byte *Limit = nullptr;
  /// Bytes bump-allocated in all full chunks before the current one,
  /// counted since the last freeAll.
  uint64_t BytesInFullChunks = 0;
  /// Drawn from a process-wide counter at construction and by every
  /// freeAll: dead marks stamped in any other epoch — an earlier one of
  /// this heap, or one of a heap that used the same pages before — can
  /// never be mistaken for this epoch's (deadMark is injective in it).
  uint64_t FreeAllEpoch;
};

} // namespace ddm

#endif // DDM_CORE_REGIONALLOCATOR_H
