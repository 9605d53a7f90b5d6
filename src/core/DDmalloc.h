//===- core/DDmalloc.h - The defrag-dodging allocator ----------*- C++ -*-===//
///
/// \file
/// DDmalloc, the paper's proposed allocator (Section 3). It is a segregated
/// storage over fixed-size, alignment-restricted segments:
///
///  - The heap is one large reservation carved into segments (32 KB by
///    default). Segments start at multiples of the segment size, so the
///    segment owning an object is a mask of the object's address.
///  - A segment is an array of equally-sized objects of one size class;
///    there is no per-object header.
///  - Per class the metadata holds the head of a singly-linked free list of
///    explicitly freed objects (reused in LIFO order) and a pointer into
///    the current segment's run of never-allocated objects; the remaining
///    length of that run is stored in the heap at the run's first object,
///    exactly as in the paper's Figure 3.
///  - Large objects (bigger than half a segment) take whole segments,
///    marked in the per-segment class array; no free lists are involved.
///  - freeAll() clears only the metadata (class array, free-list heads, run
///    pointers), returning the heap to its initial state at negligible
///    cost.
///
/// There is deliberately no coalescing, splitting, or best-fit searching:
/// the defrag-dodging thesis is that web transactions are too short for
/// fragmentation to matter, so those activities cost more than they save.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_CORE_DDMALLOC_H
#define DDM_CORE_DDMALLOC_H

#include "core/SizeClasses.h"
#include "core/TxAllocator.h"
#include "support/Arena.h"

#include <memory>
#include <optional>
#include <utility>
#include <vector>

namespace ddm {

class SharedSegmentPool;

/// Construction-time tuning knobs for DDmallocAllocator.
struct DDmallocConfig {
  /// Segment size in bytes; a power of two. 32 KB is the paper's choice.
  size_t SegmentSize = 32 * 1024;

  /// Address space reserved for the heap (committed lazily).
  size_t HeapReserveBytes = 256ull * 1024 * 1024;

  /// Identifier of the owning runtime process; feeds metadata coloring.
  uint32_t ProcessId = 0;

  /// Paper Section 3.3 optimization 1: stagger the metadata's position in
  /// the heap by process id so that the metadata of runtimes sharing a
  /// cache does not collide in the same associativity sets.
  bool MetadataColoring = true;

  /// Paper Section 3.3 optimization 2: back the heap with large pages.
  /// This build cannot force hugepages portably, so the flag is recorded
  /// for the machine simulator (which models the TLB effect).
  bool LargePages = false;

  /// Native multi-threaded mode: when set, the allocator has no private
  /// arena — it acquires segments from this shared pool (its SegmentSize
  /// must match) via the ShardId stripe and keeps its metadata off-heap.
  /// The malloc/free fast paths are unchanged; only segment refill and
  /// freeAll touch the pool. Incompatible with a simulation sink.
  std::shared_ptr<SharedSegmentPool> Pool;

  /// Stripe of the shared pool this allocator refills from (one per
  /// worker thread).
  uint32_t ShardId = 0;
};

/// The defrag-dodging allocator (the paper's DDmalloc).
class DDmallocAllocator : public TxAllocator {
public:
  explicit DDmallocAllocator(const DDmallocConfig &Config = DDmallocConfig());
  ~DDmallocAllocator() override;

  /// Registers the heap (objects and the in-heap metadata block) with the
  /// sink's canonical address map. Fatal in pooled mode with a non-null
  /// sink: shards share one arena, so per-shard canonical maps would
  /// collide (native execution runs unsimulated).
  void attachSink(AccessSink *S) override;

  void *allocate(size_t Size) override;
  void deallocate(void *Ptr) override;
  void *reallocate(void *Ptr, size_t OldSize, size_t NewSize) override;
  void freeAll() override;
  bool supportsPerObjectFree() const override { return true; }
  bool supportsBulkFree() const override { return true; }
  size_t usableSize(const void *Ptr) const override;
  const char *name() const override { return "ddmalloc"; }
  uint64_t memoryConsumption() const override;

  /// \name Introspection for tests and experiments.
  /// @{
  const DDmallocConfig &config() const { return Config; }
  const SizeClassMap &sizeClasses() const { return Classes; }
  /// Segments handed out since the last freeAll (excluding metadata).
  uint64_t segmentsInUse() const;
  /// Bytes of metadata cleared by freeAll.
  uint64_t metadataBytes() const { return MetadataSize; }
  /// Offset of the metadata block from the heap base (tests the coloring).
  uint64_t metadataOffset() const { return MetadataColorOffset; }
  /// True if \p Ptr lies in this allocator's heap (in pooled mode: in the
  /// shared pool's arena, i.e. possibly in a sibling shard's segment).
  bool owns(const void *Ptr) const override {
    auto P = reinterpret_cast<uintptr_t>(Ptr);
    auto B = reinterpret_cast<uintptr_t>(HeapBase);
    return P >= B && P < B + HeapSize;
  }
  /// The shared pool backing this allocator, or nullptr in private mode.
  SharedSegmentPool *pool() const { return Config.Pool.get(); }
  /// @}

private:
  /// Sentinels in the per-segment class array.
  enum : uint8_t {
    SegUnused = 0,
    SegLargeStart = 0xFF,
    SegLargeCont = 0xFE,
    // Small classes are stored as class index + 1 in 1 .. 0xFD.
  };

  void *allocateSmall(size_t Size);
  void *allocateLarge(size_t Size);
  void deallocateLarge(void *Ptr, size_t SegIndex);

  /// Takes one segment: from the free-segment list if possible, else by
  /// advancing the cursor. Returns nullptr when the reservation is full.
  std::byte *takeSegment();

  size_t segmentIndexFor(const void *Ptr) const {
    auto P = reinterpret_cast<uintptr_t>(Ptr);
    auto B = reinterpret_cast<uintptr_t>(HeapBase);
    return (P - B) >> SegmentShift;
  }
  std::byte *segmentBase(size_t Index) const {
    return HeapBase + (Index << SegmentShift);
  }

  DDmallocConfig Config;
  SizeClassMap Classes;
  /// Private-heap mode only; pooled allocators live in the pool's arena.
  std::optional<AlignedArena> OwnHeap;
  std::byte *HeapBase = nullptr;
  size_t HeapSize = 0;
  unsigned SegmentShift;
  size_t NumSegments;
  size_t FirstUsableSegment;
  uint64_t MetadataColorOffset;
  uint64_t MetadataSize;

  // Metadata. Private mode: inside the heap arena (see
  // MetadataColorOffset) so the cache simulator sees the real addresses.
  // Pooled mode: in PooledMeta, private to this shard.
  uintptr_t *FreeHead;   ///< Per class: head of the freed-object list.
  uintptr_t *RunPtr;     ///< Per class: first never-allocated object.
  uintptr_t *FreeSegHead;///< Head of the freed-single-segment list.
  uint64_t *SegCursor;   ///< Next never-used segment index (private mode).
  uint8_t *SegClass;     ///< Per segment: SegUnused/class+1/large marks.

  /// Pooled mode: off-heap metadata backing store (never resized, so the
  /// pointers above stay stable).
  std::vector<std::byte> PooledMeta;
  /// Pooled mode: single segments currently acquired from the pool
  /// (whether live, on the local free-segment list, or in a class run).
  std::vector<uint32_t> AcquiredSegs;
  /// Pooled mode: contiguous runs acquired for multi-segment objects,
  /// as (first index, length).
  std::vector<std::pair<uint32_t, uint32_t>> AcquiredRuns;
};

} // namespace ddm

#endif // DDM_CORE_DDMALLOC_H
