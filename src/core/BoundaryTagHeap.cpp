//===- core/BoundaryTagHeap.cpp - Defragmenting malloc engine ------------===//

#include "core/BoundaryTagHeap.h"
#include "support/Error.h"

#include <cassert>
#include <cstdio>
#include <cstring>
#include <unordered_set>

using namespace ddm;

namespace {

/// Dynamic-instruction estimates for the simulator. The totals make a
/// malloc/free pair several times more expensive than DDmalloc's, which is
/// what the paper measures for the defragmenting default allocator.
constexpr uint64_t InstrMallocBase = 24;
/// Scanning for a non-empty bin uses a bitmap of bin occupancy (as
/// dlmalloc's binmap does), so skipping empty bins is a couple of bit
/// operations, not a pointer chase per bin.
constexpr uint64_t InstrBinmapScan = 6;
constexpr uint64_t InstrPerNonEmptyProbe = 4;
constexpr uint64_t InstrPerListScan = 6;
constexpr uint64_t InstrUnlink = 11;
constexpr uint64_t InstrSplit = 20;
constexpr uint64_t InstrTakeTop = 11;
constexpr uint64_t InstrFreeBase = 17;
constexpr uint64_t InstrCoalesce = 17;
constexpr uint64_t InstrBinInsert = 10;
constexpr uint64_t InstrReallocInPlace = 20;
constexpr uint64_t InstrResetBase = 60;

constexpr uint64_t alignUp16(uint64_t Value) { return (Value + 15) & ~15ull; }

} // namespace

BoundaryTagHeap::BoundaryTagHeap(size_t ArenaBytes,
                                 std::shared_ptr<PageBackend> Backend)
    : Heap(BackedSpan::create(ArenaBytes, 4096, std::move(Backend))) {
  Top = Heap.base();
  TopLimit = Heap.base() + Heap.size();
  // Small bins: one per 16 bytes for chunk sizes 32..1024 (indices 0..62);
  // large bins: one per power of two above that.
  Bins.assign(NumBins, nullptr);
  Tails.assign(Bins.size(), nullptr);
}

unsigned BoundaryTagHeap::binIndexFor(uint64_t ChunkSize) {
  assert(ChunkSize >= MinChunk && (ChunkSize & 15) == 0 && "bad chunk size");
  if (ChunkSize <= MaxSmallChunk)
    return static_cast<unsigned>(ChunkSize / 16 - 2);
  unsigned Log = 63 - static_cast<unsigned>(__builtin_clzll(ChunkSize));
  unsigned Index = 63 + (Log - 10);
  return Index < NumBins ? Index : NumBins - 1;
}

void BoundaryTagHeap::insertIntoBin(std::byte *Chunk, uint64_t Size) {
  // FIFO: append at the tail; allocation takes the (oldest) head.
  unsigned Index = binIndexFor(Size);
  std::byte *Tail = Tails[Index];
  fwdOf(Chunk) = nullptr;
  bckOf(Chunk) = Tail;
  Sink.store(Chunk + 8, 16);
  if (Tail) {
    fwdOf(Tail) = Chunk;
    Sink.store(Tail + 8, 8);
  } else {
    Bins[Index] = Chunk;
    Sink.store(&Bins[Index], sizeof(std::byte *));
    NonEmpty[Index / 64] |= uint64_t(1) << (Index % 64);
  }
  Tails[Index] = Chunk;
  Sink.instructions(InstrBinInsert);
}

void BoundaryTagHeap::unlinkFromBin(std::byte *Chunk, uint64_t Size) {
  std::byte *Fwd = fwdOf(Chunk);
  std::byte *Bck = bckOf(Chunk);
  unsigned Index = binIndexFor(Size);
  Sink.load(Chunk + 8, 16);
  if (Bck) {
    fwdOf(Bck) = Fwd;
    Sink.store(Bck + 8, 8);
  } else {
    Bins[Index] = Fwd;
    Sink.store(&Bins[Index], sizeof(std::byte *));
  }
  if (Fwd) {
    bckOf(Fwd) = Bck;
    Sink.store(Fwd + 16, 8);
  } else {
    Tails[Index] = Bck;
  }
  if (!Bins[Index])
    NonEmpty[Index / 64] &= ~(uint64_t(1) << (Index % 64));
  Sink.instructions(InstrUnlink);
}

unsigned BoundaryTagHeap::firstNonEmptyBin(unsigned From) const {
  for (unsigned Word = From / 64; Word < NonEmpty.size(); ++Word) {
    uint64_t Bits = NonEmpty[Word];
    if (Word == From / 64)
      Bits &= ~uint64_t(0) << (From % 64);
    if (Bits)
      return Word * 64 + static_cast<unsigned>(__builtin_ctzll(Bits));
  }
  return NumBins;
}

std::byte *BoundaryTagHeap::takeFromBins(uint64_t Need) {
  unsigned Start = binIndexFor(Need);
  // One binmap word identifies the first non-empty bin at index >= Start;
  // empty bins cost nothing beyond this scan. BinProbes still counts every
  // bin from Start to the one searched, skipped or not.
  Sink.load(&Bins[Start], sizeof(std::byte *));
  Sink.instructions(InstrBinmapScan);
  unsigned Cursor = Start;
  for (unsigned Index; (Index = firstNonEmptyBin(Cursor)) != NumBins;
       Cursor = Index + 1) {
    Activity.BinProbes += Index - Cursor + 1;
    std::byte *Node = Bins[Index];
    Sink.load(&Bins[Index], sizeof(std::byte *));
    Sink.instructions(InstrPerNonEmptyProbe);
    if (Index <= 62) {
      // Small bins hold exactly one size >= Need: take the head.
      uint64_t Size = sizeOfHeader(headerOf(Node));
      Sink.load(Node, 8);
      unlinkFromBin(Node, Size);
      return Node;
    }
    // Large bin: first fit along the list.
    while (Node) {
      ++Activity.ListScans;
      uint64_t Size = sizeOfHeader(headerOf(Node));
      Sink.load(Node, 8);
      Sink.instructions(InstrPerListScan);
      if (Size >= Need) {
        unlinkFromBin(Node, Size);
        return Node;
      }
      Sink.load(Node + 8, 8);
      Node = fwdOf(Node);
    }
  }
  Activity.BinProbes += NumBins - Cursor;
  return nullptr;
}

std::byte *BoundaryTagHeap::takeFromTop(uint64_t Need) {
  if (Top + Need > TopLimit)
    return nullptr;
  std::byte *Chunk = Top;
  // The previous chunk (the one ending at the old Top) is always in use:
  // frees adjacent to the wilderness merge into it eagerly.
  headerOf(Chunk) = Need | InUseBit | PrevInUseBit;
  Sink.store(Chunk, 8);
  Top += Need;
  uint64_t Offset = static_cast<uint64_t>(Top - Heap.base());
  if (Offset > HighWaterOffset)
    HighWaterOffset = Offset;
  Sink.instructions(InstrTakeTop);
  return Chunk;
}

void BoundaryTagHeap::finishAllocation(std::byte *Chunk, uint64_t Total,
                                       uint64_t Need) {
  // The chunk came from a bin, so the chunk after it exists (free chunks
  // are never adjacent to the wilderness) and currently has PrevInUse
  // clear.
  if (Total - Need >= MinChunk) {
    // Split: the tail becomes a free chunk; the follower keeps PrevInUse=0.
    headerOf(Chunk) =
        Need | InUseBit | (headerOf(Chunk) & PrevInUseBit);
    Sink.store(Chunk, 8);
    std::byte *Remainder = Chunk + Need;
    uint64_t RemainderSize = Total - Need;
    headerOf(Remainder) = RemainderSize | PrevInUseBit;
    footerOf(Remainder, RemainderSize) = RemainderSize;
    Sink.store(Remainder, 8);
    Sink.store(Remainder + RemainderSize - 8, 8);
    insertIntoBin(Remainder, RemainderSize);
    ++Activity.Splits;
    Sink.instructions(InstrSplit);
    return;
  }
  // Use the whole chunk: the follower's previous chunk is now in use.
  headerOf(Chunk) |= InUseBit;
  Sink.store(Chunk, 8);
  std::byte *Follower = Chunk + Total;
  assert(Follower < Top && "binned chunk cannot touch the wilderness");
  headerOf(Follower) |= PrevInUseBit;
  Sink.store(Follower, 8);
}

void *BoundaryTagHeap::malloc(size_t Size) {
  uint64_t Need = alignUp16(Size + 8);
  if (Need < MinChunk)
    Need = MinChunk;
  Sink.instructions(InstrMallocBase);

  if (std::byte *Chunk = takeFromBins(Need)) {
    uint64_t Total = sizeOfHeader(headerOf(Chunk));
    finishAllocation(Chunk, Total, Need);
    return Chunk + 8;
  }
  if (std::byte *Chunk = takeFromTop(Need))
    return Chunk + 8;
  return nullptr;
}

void BoundaryTagHeap::free(void *Ptr) {
  // Fatal (not assert): a bad free would corrupt the bin lists silently,
  // so the check is part of the allocator, not of the debug build.
  if (!Ptr || !owns(Ptr))
    fatal("boundary-tag heap: bad pointer passed to free");
  std::byte *Chunk = static_cast<std::byte *>(Ptr) - 8;
  uint64_t Header = headerOf(Chunk);
  Sink.load(Chunk, 8);
  if (!(Header & InUseBit))
    fatal("heap corruption detected: double free of a boundary-tag chunk");
  uint64_t Size = sizeOfHeader(Header);
  Sink.instructions(InstrFreeBase);

  std::byte *Start = Chunk;
  uint64_t Merged = Size;
  uint64_t PrevInUse = Header & PrevInUseBit;

  // Coalesce with the previous chunk.
  if (!PrevInUse) {
    uint64_t PrevSize = *reinterpret_cast<uint64_t *>(Chunk - 8);
    Sink.load(Chunk - 8, 8);
    std::byte *Prev = Chunk - PrevSize;
    unlinkFromBin(Prev, PrevSize);
    Start = Prev;
    Merged += PrevSize;
    PrevInUse = headerOf(Prev) & PrevInUseBit;
    ++Activity.Coalesces;
    Sink.instructions(InstrCoalesce);
  }

  // Coalesce with the wilderness.
  if (Start + Merged == Top) {
    Top = Start;
    ++Activity.Coalesces;
    Sink.instructions(InstrCoalesce);
    return;
  }

  // Coalesce with the next chunk.
  std::byte *NextChunk = Start + Merged;
  uint64_t NextHeader = headerOf(NextChunk);
  Sink.load(NextChunk, 8);
  if (!(NextHeader & InUseBit)) {
    uint64_t NextSize = sizeOfHeader(NextHeader);
    unlinkFromBin(NextChunk, NextSize);
    Merged += NextSize;
    ++Activity.Coalesces;
    Sink.instructions(InstrCoalesce);
    if (Start + Merged == Top) {
      // (Cannot happen while the no-free-chunk-touches-Top invariant
      // holds, but stay safe.)
      Top = Start;
      return;
    }
  }

  headerOf(Start) = Merged | PrevInUse;
  footerOf(Start, Merged) = Merged;
  Sink.store(Start, 8);
  Sink.store(Start + Merged - 8, 8);
  std::byte *Follower = Start + Merged;
  headerOf(Follower) &= ~PrevInUseBit;
  Sink.store(Follower, 8);
  insertIntoBin(Start, Merged);
}

size_t BoundaryTagHeap::usableSize(const void *Ptr) const {
  if (!Ptr || !owns(Ptr))
    fatal("boundary-tag heap: bad pointer");
  auto *Chunk = static_cast<const std::byte *>(Ptr) - 8;
  uint64_t Header = *reinterpret_cast<const uint64_t *>(Chunk);
  if (!(Header & InUseBit))
    fatal("heap corruption detected: double free (boundary-tag object is "
          "not live)");
  return sizeOfHeader(Header) - 8;
}

void *BoundaryTagHeap::realloc(void *Ptr, size_t NewSize) {
  if (!Ptr)
    return malloc(NewSize);
  std::byte *Chunk = static_cast<std::byte *>(Ptr) - 8;
  uint64_t Size = sizeOfHeader(headerOf(Chunk));
  Sink.load(Chunk, 8);
  uint64_t Need = alignUp16(NewSize + 8);
  if (Need < MinChunk)
    Need = MinChunk;

  if (Need <= Size) {
    // Shrink in place; give a large enough tail back to the bins by
    // "freeing" a synthetic chunk (which re-coalesces forward).
    if (Size - Need >= 2 * MinChunk) {
      headerOf(Chunk) = Need | InUseBit | (headerOf(Chunk) & PrevInUseBit);
      Sink.store(Chunk, 8);
      std::byte *Tail = Chunk + Need;
      headerOf(Tail) = (Size - Need) | InUseBit | PrevInUseBit;
      Sink.store(Tail, 8);
      ++Activity.Splits;
      Sink.instructions(InstrSplit);
      free(Tail + 8);
    } else {
      Sink.instructions(InstrReallocInPlace);
    }
    return Ptr;
  }

  // Try to grow into the wilderness.
  if (Chunk + Size == Top) {
    uint64_t Extra = Need - Size;
    if (Top + Extra <= TopLimit) {
      headerOf(Chunk) = Need | InUseBit | (headerOf(Chunk) & PrevInUseBit);
      Sink.store(Chunk, 8);
      Top += Extra;
      uint64_t Offset = static_cast<uint64_t>(Top - Heap.base());
      if (Offset > HighWaterOffset)
        HighWaterOffset = Offset;
      Sink.instructions(InstrReallocInPlace);
      return Ptr;
    }
  }

  // Try to grow into a free next chunk.
  if (Chunk + Size < Top) {
    std::byte *NextChunk = Chunk + Size;
    uint64_t NextHeader = headerOf(NextChunk);
    Sink.load(NextChunk, 8);
    if (!(NextHeader & InUseBit) && Size + sizeOfHeader(NextHeader) >= Need) {
      uint64_t NextSize = sizeOfHeader(NextHeader);
      unlinkFromBin(NextChunk, NextSize);
      uint64_t Total = Size + NextSize;
      ++Activity.Coalesces;
      Sink.instructions(InstrCoalesce);
      if (Total - Need >= MinChunk) {
        headerOf(Chunk) = Need | InUseBit | (headerOf(Chunk) & PrevInUseBit);
        Sink.store(Chunk, 8);
        std::byte *Remainder = Chunk + Need;
        uint64_t RemainderSize = Total - Need;
        headerOf(Remainder) = RemainderSize | PrevInUseBit;
        footerOf(Remainder, RemainderSize) = RemainderSize;
        Sink.store(Remainder, 8);
        Sink.store(Remainder + RemainderSize - 8, 8);
        insertIntoBin(Remainder, RemainderSize);
        ++Activity.Splits;
        Sink.instructions(InstrSplit);
      } else {
        headerOf(Chunk) = Total | InUseBit | (headerOf(Chunk) & PrevInUseBit);
        Sink.store(Chunk, 8);
        std::byte *Follower = Chunk + Total;
        headerOf(Follower) |= PrevInUseBit;
        Sink.store(Follower, 8);
      }
      return Ptr;
    }
  }

  // Move.
  void *Fresh = malloc(NewSize);
  if (!Fresh)
    return nullptr;
  size_t CopyBytes = Size - 8 < NewSize ? Size - 8 : NewSize;
  std::memcpy(Fresh, Ptr, CopyBytes);
  Sink.copy(Ptr, Fresh, CopyBytes);
  Sink.instructions(CopyBytes / 16 + 8);
  free(Ptr);
  return Fresh;
}

void BoundaryTagHeap::reset() {
  Top = Heap.base();
  HighWaterOffset = 0;
  std::fill(Bins.begin(), Bins.end(), nullptr);
  std::fill(Tails.begin(), Tails.end(), nullptr);
  NonEmpty.fill(0);
  if (Sink) {
    size_t TotalBytes = Bins.size() * sizeof(std::byte *);
    auto *Base = reinterpret_cast<const std::byte *>(Bins.data());
    for (size_t Offset = 0; Offset < TotalBytes; Offset += 64) {
      auto Piece = static_cast<uint32_t>(
          TotalBytes - Offset > 64 ? 64 : TotalBytes - Offset);
      Sink.store(Base + Offset, Piece);
    }
    Sink.instructions(InstrResetBase + Bins.size());
  }
}

uint64_t BoundaryTagHeap::freeChunkCount() const {
  uint64_t Count = 0;
  for (std::byte *Head : Bins)
    for (std::byte *Node = Head; Node; Node = fwdOf(Node))
      ++Count;
  return Count;
}

bool BoundaryTagHeap::verify() const {
  // Pass 1: collect the bins' contents and check their linkage.
  std::unordered_set<const std::byte *> Binned;
  for (unsigned Index = 0; Index != NumBins; ++Index) {
    bool Marked = (NonEmpty[Index / 64] >> (Index % 64)) & 1;
    if (Marked != (Bins[Index] != nullptr)) {
      std::fprintf(stderr, "verify: binmap bit %u disagrees with its bin\n",
                   Index);
      return false;
    }
    const std::byte *PrevNode = nullptr;
    for (std::byte *Node = Bins[Index]; Node; Node = fwdOf(Node)) {
      uint64_t Header = *reinterpret_cast<const uint64_t *>(Node);
      uint64_t Size = sizeOfHeader(Header);
      if (Header & InUseBit) {
        std::fprintf(stderr, "verify: in-use chunk %p in bin %u\n",
                     static_cast<const void *>(Node), Index);
        return false;
      }
      if (binIndexFor(Size) != Index) {
        std::fprintf(stderr, "verify: chunk %p (size %llu) in wrong bin %u\n",
                     static_cast<const void *>(Node),
                     static_cast<unsigned long long>(Size), Index);
        return false;
      }
      if (bckOf(const_cast<std::byte *>(Node)) != PrevNode) {
        std::fprintf(stderr, "verify: bad back-link at %p\n",
                     static_cast<const void *>(Node));
        return false;
      }
      if (!Binned.insert(Node).second) {
        std::fprintf(stderr, "verify: chunk %p linked twice\n",
                     static_cast<const void *>(Node));
        return false;
      }
      PrevNode = Node;
    }
  }

  // Pass 2: walk the heap from the base to the wilderness.
  const std::byte *Cursor = Heap.base();
  bool PrevWasFree = false;
  bool ExpectPrevInUse = true; // Sentinel: the heap start acts as in-use.
  uint64_t FreeSeen = 0;
  while (Cursor < Top) {
    uint64_t Header = *reinterpret_cast<const uint64_t *>(Cursor);
    uint64_t Size = sizeOfHeader(Header);
    if (Size < MinChunk || (Size & 15) || Cursor + Size > Top) {
      std::fprintf(stderr, "verify: bad chunk size %llu at %p\n",
                   static_cast<unsigned long long>(Size),
                   static_cast<const void *>(Cursor));
      return false;
    }
    bool InUse = Header & InUseBit;
    bool PrevFlag = Header & PrevInUseBit;
    if (PrevFlag != ExpectPrevInUse) {
      std::fprintf(stderr, "verify: stale prev-in-use flag at %p\n",
                   static_cast<const void *>(Cursor));
      return false;
    }
    if (!InUse) {
      if (PrevWasFree) {
        std::fprintf(stderr, "verify: adjacent free chunks at %p\n",
                     static_cast<const void *>(Cursor));
        return false;
      }
      uint64_t Footer =
          *reinterpret_cast<const uint64_t *>(Cursor + Size - 8);
      if (Footer != Size) {
        std::fprintf(stderr, "verify: footer mismatch at %p (%llu vs %llu)\n",
                     static_cast<const void *>(Cursor),
                     static_cast<unsigned long long>(Footer),
                     static_cast<unsigned long long>(Size));
        return false;
      }
      if (!Binned.count(Cursor)) {
        std::fprintf(stderr, "verify: free chunk %p missing from bins\n",
                     static_cast<const void *>(Cursor));
        return false;
      }
      if (Cursor + Size == Top) {
        std::fprintf(stderr, "verify: free chunk touches the wilderness\n");
        return false;
      }
      ++FreeSeen;
    }
    PrevWasFree = !InUse;
    ExpectPrevInUse = InUse;
    Cursor += Size;
  }
  if (Cursor != Top) {
    std::fprintf(stderr, "verify: heap walk overshot the wilderness\n");
    return false;
  }
  if (FreeSeen != Binned.size()) {
    std::fprintf(stderr, "verify: %llu free chunks in heap, %zu in bins\n",
                 static_cast<unsigned long long>(FreeSeen), Binned.size());
    return false;
  }
  return true;
}
