//===- core/BoundaryTagHeap.h - Defragmenting malloc engine ----*- C++ -*-===//
///
/// \file
/// A boundary-tag, segregated-bin, coalescing heap in the style of Doug
/// Lea's allocator. It is the engine behind the model of the PHP runtime's
/// default (Zend) allocator and the glibc-malloc model: the paper
/// attributes their cost to exactly the machinery implemented here —
/// per-chunk headers, bin searches, splitting large chunks on malloc, and
/// coalescing neighbours on free ("defragmentation activities").
///
/// Chunk layout (sizes are multiples of 16, including the 8-byte header):
///
///   +0   uint64 SizeAndFlags   (bit0: this chunk in use,
///                               bit1: previous chunk in use)
///   +8   payload... (in use)   or Fwd/Bck free-list links (free)
///   end-8 uint64 Size          (footer, only while free)
///
/// Free chunks are never adjacent: free() eagerly coalesces with both
/// neighbours and with the wilderness ("top") area.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_CORE_BOUNDARYTAGHEAP_H
#define DDM_CORE_BOUNDARYTAGHEAP_H

#include "core/AccessSink.h"
#include "page/PageBackend.h"
#include "support/Arena.h"

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace ddm {

/// Counters of the defragmentation work the heap performs; the study's
/// "defragmentation activities" made measurable.
struct DefragActivity {
  uint64_t Coalesces = 0; ///< Neighbour merges performed by free/realloc.
  uint64_t Splits = 0;    ///< Chunk splits performed by malloc/realloc.
  uint64_t BinProbes = 0; ///< Bin-head inspections while searching.
  uint64_t ListScans = 0; ///< Nodes walked inside large bins.
};

/// The coalescing heap engine.
class BoundaryTagHeap {
public:
  /// \p ArenaBytes is the backing reservation (committed lazily). When
  /// \p Backend is non-null the reservation is a span drawn from it and
  /// returned on destruction; otherwise a private arena.
  explicit BoundaryTagHeap(size_t ArenaBytes,
                           std::shared_ptr<PageBackend> Backend = nullptr);

  BoundaryTagHeap(const BoundaryTagHeap &) = delete;
  BoundaryTagHeap &operator=(const BoundaryTagHeap &) = delete;

  ~BoundaryTagHeap() {
    Sink.unmapRegion(Bins.data());
    Sink.unmapRegion(Heap.base());
  }

  /// Allocates \p Size payload bytes; returns nullptr when the arena is
  /// exhausted.
  void *malloc(size_t Size);

  /// Frees one object, coalescing with free neighbours.
  void free(void *Ptr);

  /// Resizes in place when the neighbouring space allows, else moves.
  void *realloc(void *Ptr, size_t NewSize);

  /// Payload capacity of the object at \p Ptr.
  size_t usableSize(const void *Ptr) const;

  /// Discards every object: rewinds the wilderness and clears the bins.
  /// (This is the Zend-style per-request bulk free; the glibc model never
  /// calls it.)
  void reset();

  /// High-water footprint taken from the arena since the last reset().
  uint64_t footprintBytes() const { return HighWaterOffset; }

  const DefragActivity &defragActivity() const { return Activity; }

  /// Attaches the sink and registers the arena plus the bin-head table
  /// (metadata mirrored by chunk bookkeeping) with its canonical address
  /// map.
  void attachSink(AccessSink *S) {
    Sink.attach(S);
    Sink.mapRegion(Heap.base(), Heap.size());
    Sink.mapRegion(Bins.data(), Bins.size() * sizeof(std::byte *));
  }

  /// True if \p Ptr points into the heap's arena.
  bool owns(const void *Ptr) const { return Heap.contains(Ptr); }

  /// Walks the whole heap checking boundary-tag consistency: header/footer
  /// agreement, no adjacent free chunks, bins containing exactly the free
  /// chunks. Returns false (after printing the defect) on corruption.
  /// O(heap), test-only.
  bool verify() const;

  /// Number of free chunks currently held in bins (test helper).
  uint64_t freeChunkCount() const;

private:
  static constexpr uint64_t InUseBit = 1;
  static constexpr uint64_t PrevInUseBit = 2;
  static constexpr uint64_t FlagMask = 15;
  static constexpr size_t MinChunk = 32;
  /// Small bins are exact-size spaced 16 bytes apart up to this chunk size.
  static constexpr size_t MaxSmallChunk = 1024;
  /// 63 small bins (chunk sizes 32..1024) and 22 power-of-two large bins.
  static constexpr unsigned NumBins = 63 + 22;

  uint64_t &headerOf(std::byte *Chunk) const {
    return *reinterpret_cast<uint64_t *>(Chunk);
  }
  static uint64_t sizeOfHeader(uint64_t Header) { return Header & ~FlagMask; }
  std::byte *&fwdOf(std::byte *Chunk) const {
    return *reinterpret_cast<std::byte **>(Chunk + 8);
  }
  std::byte *&bckOf(std::byte *Chunk) const {
    return *reinterpret_cast<std::byte **>(Chunk + 16);
  }
  uint64_t &footerOf(std::byte *Chunk, uint64_t Size) const {
    return *reinterpret_cast<uint64_t *>(Chunk + Size - 8);
  }

  static unsigned binIndexFor(uint64_t ChunkSize);

  void insertIntoBin(std::byte *Chunk, uint64_t Size);
  void unlinkFromBin(std::byte *Chunk, uint64_t Size);

  /// Index of the first non-empty bin at or above \p From, or NumBins.
  unsigned firstNonEmptyBin(unsigned From) const;

  /// Finds a free chunk of at least \p Need bytes in the bins; returns
  /// nullptr if none. On success the chunk is unlinked.
  std::byte *takeFromBins(uint64_t Need);

  /// Carves \p Need bytes from the wilderness; nullptr when exhausted.
  std::byte *takeFromTop(uint64_t Need);

  /// Splits \p Chunk (already unlinked, \p Total bytes) so the first
  /// \p Need bytes stay allocated; the remainder, if big enough, becomes a
  /// free chunk. Finishes all header/footer/neighbour bookkeeping.
  void finishAllocation(std::byte *Chunk, uint64_t Total, uint64_t Need);

  BackedSpan Heap;
  std::byte *Top;      ///< First byte of the wilderness.
  std::byte *TopLimit; ///< End of the arena.
  uint64_t HighWaterOffset = 0;
  /// Bins are FIFO (insert at tail, allocate from head), as in dlmalloc's
  /// small bins: "least recently used" reuse reduces fragmentation but
  /// returns cold chunks — one of the locality costs DDmalloc's LIFO free
  /// lists avoid.
  std::vector<std::byte *> Bins;
  std::vector<std::byte *> Tails;
  /// Bit I is set iff Bins[I] is non-empty (dlmalloc's binmap).
  std::array<uint64_t, (NumBins + 63) / 64> NonEmpty{};
  DefragActivity Activity;
  SinkHandle Sink;
};

} // namespace ddm

#endif // DDM_CORE_BOUNDARYTAGHEAP_H
