//===- core/DDmalloc.cpp - The defrag-dodging allocator ------------------===//

#include "core/DDmalloc.h"
#include "core/PageMap.h"
#include "core/SegmentPool.h"
#include "support/Error.h"
#include "support/FaultInjection.h"

#include <cassert>
#include <cstring>

using namespace ddm;

namespace {

/// Dynamic-instruction estimates for each operation path, used by the
/// machine simulator. They approximate the paper's observation that
/// DDmalloc's malloc/free do nothing beyond free-list maintenance.
constexpr uint64_t InstrMallocFromFreeList = 14;
constexpr uint64_t InstrMallocFromRun = 18;
constexpr uint64_t InstrMallocNewSegment = 42;
constexpr uint64_t InstrMallocLargeBase = 36;
constexpr uint64_t InstrMallocLargePerSegment = 6;
constexpr uint64_t InstrFreeSmall = 10;
constexpr uint64_t InstrFreeLargePerSegment = 8;
constexpr uint64_t InstrFreeAllBase = 32;
/// freeAll clears metadata with a memset-like loop; charge one instruction
/// per this many bytes.
constexpr uint64_t FreeAllBytesPerInstr = 16;

/// Pooled mode: segments acquired from the shared pool per stripe lock.
/// Refilling in batches keeps the lock off the per-transaction path.
constexpr size_t SegmentRefillBatch = 8;

} // namespace

DDmallocAllocator::DDmallocAllocator(const AllocatorOptions &O)
    : Options(O), Pool(std::dynamic_pointer_cast<SharedSegmentPool>(O.Shared)),
      Classes(O.SegmentSize / 2) {
  assert((O.SegmentSize & (O.SegmentSize - 1)) == 0 &&
         "segment size must be a power of two");
  assert(O.SegmentSize >= 4096 && "segment size too small");
  SegmentShift = static_cast<unsigned>(__builtin_ctzll(O.SegmentSize));
  unsigned NumClasses = Classes.numClasses();

  if (Pool) {
    // Pooled (native multi-threaded) mode: the heap is the pool's shared
    // arena; this shard's metadata lives off-heap, private to the owning
    // thread, and covers every pool segment (any of which this shard may
    // acquire).
    if (Pool->segmentSize() != Options.SegmentSize)
      fatal("ddmalloc segment size does not match its shared pool");
    HeapBase = Pool->base();
    HeapSize = Pool->size();
    NumSegments = Pool->numSegments();
    FirstUsableSegment = 0;
    MetadataColorOffset = 0; // Off-heap metadata: coloring does not apply.
    uint64_t ArraysBytes = sizeof(uintptr_t) * (2 * NumClasses + 1) +
                           sizeof(uint64_t) + NumSegments;
    MetadataSize = ArraysBytes;
    PooledMeta.assign(ArraysBytes, std::byte{0});
    std::byte *Meta = PooledMeta.data();
    FreeHead = reinterpret_cast<uintptr_t *>(Meta);
    RunPtr = FreeHead + NumClasses;
    FreeSegHead = RunPtr + NumClasses;
    SegCursor = reinterpret_cast<uint64_t *>(FreeSegHead + 1);
    SegClass = reinterpret_cast<uint8_t *>(SegCursor + 1);
    AcquiredSegs.reserve(64);
    return;
  }

  if (O.HeapReserveBytes < 4 * O.SegmentSize)
    fatal("ddmalloc heap reservation too small: need at least 4 segments");
  OwnHeap.emplace(O.HeapReserveBytes, O.SegmentSize);
  HeapBase = OwnHeap->base();
  HeapSize = OwnHeap->size();
  NumSegments = HeapSize >> SegmentShift;

  // Metadata layout: color offset, then the per-class arrays, then the
  // per-segment class bytes. Everything lives inside the heap arena so the
  // cache simulator sees the real addresses (and the real conflicts the
  // coloring is meant to avoid).
  uint64_t ArraysBytes = sizeof(uintptr_t) * (2 * NumClasses + 1) +
                         sizeof(uint64_t) + NumSegments;
  // Stagger by a cache-line-odd stride so consecutive process ids land in
  // different L1/L2 sets.
  constexpr uint64_t ColorStride = 2240; // 35 cache lines.
  uint64_t MaxColor = Options.SegmentSize / 2;
  MetadataColorOffset = Options.MetadataColoring
                            ? (Options.ProcessId * ColorStride) % MaxColor
                            : 0;
  MetadataColorOffset &= ~static_cast<uint64_t>(63); // keep 64B alignment
  MetadataSize = ArraysBytes;

  uint64_t MetaEnd = MetadataColorOffset + ArraysBytes;
  FirstUsableSegment = (MetaEnd + Options.SegmentSize - 1) >> SegmentShift;
  if (FirstUsableSegment >= NumSegments)
    fatal("ddmalloc heap reservation too small for its metadata");

  std::byte *Meta = HeapBase + MetadataColorOffset;
  FreeHead = reinterpret_cast<uintptr_t *>(Meta);
  RunPtr = FreeHead + NumClasses;
  FreeSegHead = RunPtr + NumClasses;
  SegCursor = reinterpret_cast<uint64_t *>(FreeSegHead + 1);
  SegClass = reinterpret_cast<uint8_t *>(SegCursor + 1);

  // Fresh mmap memory is already zero; just set the cursor.
  *SegCursor = FirstUsableSegment;
}

DDmallocAllocator::~DDmallocAllocator() {
  if (Pool) {
    // Return every acquired segment so a restarted or destroyed shard
    // never strands pool capacity.
    if (!AcquiredSegs.empty())
      Pool->releaseSegments(Options.ShardId, AcquiredSegs.data(),
                                   AcquiredSegs.size());
    for (auto [First, Length] : AcquiredRuns)
      Pool->releaseRun(First, Length);
  }
  Sink.unmapRegion(HeapBase);
}

void DDmallocAllocator::attachSink(AccessSink *S) {
  if (Pool && S)
    fatal("pooled ddmalloc cannot attach a simulation sink: shards share "
          "one arena");
  TxAllocator::attachSink(S);
  Sink.mapRegion(HeapBase, HeapSize);
}

std::byte *DDmallocAllocator::takeSegment() {
  if (!Pool && faultShouldFail(FaultSite::SegmentAcquire))
    return nullptr;
  // Prefer a previously freed segment (from a freed large object, or a
  // pooled refill batch).
  uintptr_t Head = *FreeSegHead;
  Sink.load(FreeSegHead, sizeof(uintptr_t));
  if (Head != 0) {
    auto *Seg = reinterpret_cast<std::byte *>(Head);
    // The freed segment stores the next list entry in its first word.
    uintptr_t Next = *reinterpret_cast<uintptr_t *>(Seg);
    Sink.load(Seg, sizeof(uintptr_t));
    *FreeSegHead = Next;
    Sink.store(FreeSegHead, sizeof(uintptr_t));
    return Seg;
  }
  if (Pool) {
    // Refill from this shard's stripe in a batch; the extras park on the
    // local free-segment list so the stripe lock amortizes over many
    // segment starts. The pool applies the segment_acquire fault site.
    uint32_t Batch[SegmentRefillBatch];
    size_t Got = Pool->acquireSegments(Options.ShardId, Batch,
                                              SegmentRefillBatch);
    if (Got == 0)
      return nullptr;
    for (size_t I = 1; I < Got; ++I) {
      std::byte *Seg = segmentBase(Batch[I]);
      *reinterpret_cast<uintptr_t *>(Seg) = *FreeSegHead;
      *FreeSegHead = reinterpret_cast<uintptr_t>(Seg);
      AcquiredSegs.push_back(Batch[I]);
    }
    AcquiredSegs.push_back(Batch[0]);
    return segmentBase(Batch[0]);
  }
  uint64_t Cursor = *SegCursor;
  Sink.load(SegCursor, sizeof(uint64_t));
  if (Cursor >= NumSegments)
    return nullptr;
  *SegCursor = Cursor + 1;
  Sink.store(SegCursor, sizeof(uint64_t));
  return segmentBase(Cursor);
}

void *DDmallocAllocator::allocateSmall(size_t Size) {
  unsigned Class = Classes.classFor(Size);
  size_t ObjectSize = Classes.classSize(Class);

  // Path 1: reuse an explicitly freed object (LIFO).
  uintptr_t Head = FreeHead[Class];
  Sink.load(&FreeHead[Class], sizeof(uintptr_t));
  if (Head != 0) {
    uintptr_t Next = *reinterpret_cast<uintptr_t *>(Head);
    Sink.load(reinterpret_cast<void *>(Head), sizeof(uintptr_t));
    FreeHead[Class] = Next;
    Sink.store(&FreeHead[Class], sizeof(uintptr_t));
    Sink.instructions(InstrMallocFromFreeList);
    noteMalloc(Size, ObjectSize);
    return reinterpret_cast<void *>(Head);
  }

  // Path 2: carve the next object out of the current segment's run of
  // never-allocated objects. The run length lives in the heap at the run's
  // first object (paper Figure 3).
  uintptr_t Run = RunPtr[Class];
  Sink.load(&RunPtr[Class], sizeof(uintptr_t));
  if (Run == 0) {
    // Path 3: start a new segment for this class.
    std::byte *Seg = takeSegment();
    if (!Seg)
      return nullptr;
    size_t Index = segmentIndexFor(Seg);
    SegClass[Index] = static_cast<uint8_t>(Class + 1);
    Sink.store(&SegClass[Index], 1);
    uint32_t ObjectsPerSegment =
        static_cast<uint32_t>(Options.SegmentSize / ObjectSize);
    *reinterpret_cast<uint32_t *>(Seg) = ObjectsPerSegment;
    Sink.store(Seg, sizeof(uint32_t));
    RunPtr[Class] = reinterpret_cast<uintptr_t>(Seg);
    Sink.store(&RunPtr[Class], sizeof(uintptr_t));
    Run = RunPtr[Class];
    Sink.instructions(InstrMallocNewSegment);
  }

  auto *RunFirst = reinterpret_cast<std::byte *>(Run);
  uint32_t Remaining = *reinterpret_cast<uint32_t *>(RunFirst);
  Sink.load(RunFirst, sizeof(uint32_t));
  if (Remaining > 1) {
    std::byte *Next = RunFirst + ObjectSize;
    *reinterpret_cast<uint32_t *>(Next) = Remaining - 1;
    Sink.store(Next, sizeof(uint32_t));
    RunPtr[Class] = reinterpret_cast<uintptr_t>(Next);
  } else {
    RunPtr[Class] = 0;
  }
  Sink.store(&RunPtr[Class], sizeof(uintptr_t));
  Sink.instructions(InstrMallocFromRun);
  noteMalloc(Size, ObjectSize);
  return RunFirst;
}

void *DDmallocAllocator::allocateLarge(size_t Size) {
  size_t Segments = (Size + Options.SegmentSize - 1) >> SegmentShift;
  std::byte *Start = nullptr;
  size_t StartIndex = 0;

  if (Segments == 1) {
    Start = takeSegment();
    if (!Start)
      return nullptr;
    StartIndex = segmentIndexFor(Start);
  } else if (Pool) {
    // Pooled mode: contiguous runs come from the pool's frontier/run list
    // (the pool applies the segment_acquire fault site).
    uint32_t First = Pool->acquireRun(Segments);
    if (First == UINT32_MAX)
      return nullptr;
    AcquiredRuns.emplace_back(First, static_cast<uint32_t>(Segments));
    StartIndex = First;
    Start = segmentBase(StartIndex);
  } else {
    // Multi-segment objects need contiguous segments; they are taken from
    // the cursor only. They are very rare in transaction-scoped workloads
    // and everything is reclaimed by freeAll, so skipping the freed-segment
    // list here keeps allocation O(1) without a contiguity search.
    if (faultShouldFail(FaultSite::SegmentAcquire))
      return nullptr;
    uint64_t Cursor = *SegCursor;
    Sink.load(SegCursor, sizeof(uint64_t));
    if (Cursor + Segments > NumSegments)
      return nullptr;
    *SegCursor = Cursor + Segments;
    Sink.store(SegCursor, sizeof(uint64_t));
    StartIndex = Cursor;
    Start = segmentBase(StartIndex);
  }

  SegClass[StartIndex] = SegLargeStart;
  Sink.store(&SegClass[StartIndex], 1);
  for (size_t I = 1; I < Segments; ++I) {
    SegClass[StartIndex + I] = SegLargeCont;
    Sink.store(&SegClass[StartIndex + I], 1);
  }
  Sink.instructions(InstrMallocLargeBase + InstrMallocLargePerSegment * Segments);
  noteMalloc(Size, Segments << SegmentShift);
  return Start;
}

void *DDmallocAllocator::allocate(size_t Size) {
  if (Classes.isSmall(Size))
    return allocateSmall(Size);
  return allocateLarge(Size);
}

void DDmallocAllocator::deallocateLarge(void *Ptr, size_t SegIndex) {
  size_t Segments =
      PageMap::runLength(SegClass, NumSegments, SegIndex, SegLargeCont);

  noteFree(Segments << SegmentShift);
  if (Pool && Segments > 1) {
    // Pooled mode: return the whole run to the pool (contiguity is
    // valuable there); singles below go to the local free-segment list.
    for (size_t I = 0; I < Segments; ++I)
      SegClass[SegIndex + I] = SegUnused;
    for (auto It = AcquiredRuns.begin(); It != AcquiredRuns.end(); ++It)
      if (It->first == SegIndex) {
        AcquiredRuns.erase(It);
        break;
      }
    Pool->releaseRun(static_cast<uint32_t>(SegIndex), Segments);
    Sink.instructions(InstrFreeLargePerSegment * Segments);
    (void)Ptr;
    return;
  }
  for (size_t I = 0; I < Segments; ++I) {
    size_t Index = SegIndex + I;
    Sink.load(&SegClass[Index], 1);
    SegClass[Index] = SegUnused;
    Sink.store(&SegClass[Index], 1);
    // Push each segment on the freed-segment list for reuse.
    std::byte *Seg = segmentBase(Index);
    *reinterpret_cast<uintptr_t *>(Seg) = *FreeSegHead;
    Sink.store(Seg, sizeof(uintptr_t));
    *FreeSegHead = reinterpret_cast<uintptr_t>(Seg);
    Sink.store(FreeSegHead, sizeof(uintptr_t));
  }
  Sink.instructions(InstrFreeLargePerSegment * Segments);
  (void)Ptr;
}

void DDmallocAllocator::deallocate(void *Ptr) {
  if (!Ptr)
    return;
  // Fatal (not assert): these misuse checks guard the free-list and
  // segment metadata in every build type.
  if (!owns(Ptr))
    fatal("ddmalloc: freed pointer not from this heap");
  size_t SegIndex = segmentIndexFor(Ptr);
  uint8_t Mark = SegClass[SegIndex];
  Sink.load(&SegClass[SegIndex], 1);
  if (Mark == SegUnused)
    fatal("ddmalloc: freeing into an unused segment (double free of a "
          "large object or foreign pointer)");

  if (Mark == SegLargeStart) {
    deallocateLarge(Ptr, SegIndex);
    return;
  }
  if (Mark == SegLargeCont)
    fatal("ddmalloc: freed pointer into the middle of a large object");

  unsigned Class = Mark - 1;
  // An immediate re-free would push the object on top of itself and tie
  // the free list into a cycle; catch the common double free for one
  // compare.
  if (reinterpret_cast<uintptr_t>(Ptr) == FreeHead[Class])
    fatal("heap corruption detected: double free (object already heads "
          "its ddmalloc free list)");
  // Chain onto the class free list; freed objects are reused LIFO.
  *reinterpret_cast<uintptr_t *>(Ptr) = FreeHead[Class];
  Sink.store(Ptr, sizeof(uintptr_t));
  Sink.load(&FreeHead[Class], sizeof(uintptr_t));
  FreeHead[Class] = reinterpret_cast<uintptr_t>(Ptr);
  Sink.store(&FreeHead[Class], sizeof(uintptr_t));
  Sink.instructions(InstrFreeSmall);
  noteFree(Classes.classSize(Class));
}

size_t DDmallocAllocator::usableSize(const void *Ptr) const {
  assert(Ptr && owns(Ptr) && "pointer not from this heap");
  size_t SegIndex = segmentIndexFor(Ptr);
  uint8_t Mark = SegClass[SegIndex];
  assert(Mark != SegUnused && Mark != SegLargeCont && "not an object start");
  if (Mark == SegLargeStart)
    return PageMap::runLength(SegClass, NumSegments, SegIndex, SegLargeCont)
           << SegmentShift;
  return Classes.classSize(Mark - 1);
}

void *DDmallocAllocator::reallocate(void *Ptr, size_t OldSize, size_t NewSize) {
  // Growing within the same size class (or shrinking) is free.
  return reallocateInClass(Ptr, OldSize, NewSize, Classes,
                           InstrMallocFromFreeList);
}

void DDmallocAllocator::freeAll() {
  unsigned NumClasses = Classes.numClasses();

  if (Pool) {
    // Pooled mode: clear this shard's private metadata and hand every
    // acquired segment back to the pool. The cost stays proportional to
    // what the shard actually touched, exactly like the private-heap
    // freeAll.
    std::memset(FreeHead, 0, sizeof(uintptr_t) * NumClasses);
    std::memset(RunPtr, 0, sizeof(uintptr_t) * NumClasses);
    *FreeSegHead = 0;
    for (uint32_t Index : AcquiredSegs)
      SegClass[Index] = SegUnused;
    for (auto [First, Length] : AcquiredRuns)
      std::memset(&SegClass[First], 0, Length);
    if (!AcquiredSegs.empty()) {
      Pool->releaseSegments(Options.ShardId, AcquiredSegs.data(),
                                   AcquiredSegs.size());
      AcquiredSegs.clear();
    }
    for (auto [First, Length] : AcquiredRuns)
      Pool->releaseRun(First, Length);
    AcquiredRuns.clear();
    noteFreeAll();
    return;
  }

  uint64_t UsedSegments = *SegCursor;

  std::memset(FreeHead, 0, sizeof(uintptr_t) * NumClasses);
  std::memset(RunPtr, 0, sizeof(uintptr_t) * NumClasses);
  *FreeSegHead = 0;
  std::memset(SegClass, 0, UsedSegments); // only the touched prefix
  *SegCursor = FirstUsableSegment;

  // Mirror the metadata clear into the simulator: the cleared bytes are the
  // entire cost of freeAll.
  uint64_t ClearedBytes =
      sizeof(uintptr_t) * (2 * NumClasses + 1) + sizeof(uint64_t) + UsedSegments;
  if (Sink) {
    for (uint64_t Offset = 0; Offset < ClearedBytes; Offset += 64) {
      uint32_t Piece =
          ClearedBytes - Offset > 64 ? 64 : static_cast<uint32_t>(ClearedBytes - Offset);
      Sink.store(reinterpret_cast<std::byte *>(FreeHead) + Offset, Piece);
    }
    Sink.instructions(InstrFreeAllBase + ClearedBytes / FreeAllBytesPerInstr);
  }
  noteFreeAll();
}

uint64_t DDmallocAllocator::segmentsInUse() const {
  if (Pool) {
    uint64_t RunSegments = 0;
    for (auto [First, Length] : AcquiredRuns)
      RunSegments += Length;
    return AcquiredSegs.size() + RunSegments;
  }
  return *SegCursor - FirstUsableSegment;
}

uint64_t DDmallocAllocator::memoryConsumption() const {
  // Paper Figure 9: "the total amount of memory used for allocated segments
  // and the metadata for DDmalloc".
  return segmentsInUse() * Options.SegmentSize + MetadataSize;
}
