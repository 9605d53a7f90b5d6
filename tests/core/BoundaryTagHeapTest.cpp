//===- tests/core/BoundaryTagHeapTest.cpp - Coalescing heap tests ---------===//

#include "core/BoundaryTagHeap.h"
#include "core/GlibcModelAllocator.h"
#include "core/ZendDefaultAllocator.h"
#include "runtime/TransactionRuntime.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

using namespace ddm;

namespace {
constexpr size_t TestArena = 32ull * 1024 * 1024;
} // namespace

TEST(BoundaryTagHeapTest, BasicAllocateAndVerify) {
  BoundaryTagHeap H(TestArena);
  void *P = H.malloc(100);
  ASSERT_NE(P, nullptr);
  EXPECT_GE(H.usableSize(P), 100u);
  EXPECT_TRUE(H.verify());
  H.free(P);
  EXPECT_TRUE(H.verify());
}

TEST(BoundaryTagHeapTest, FreeAdjacentToWildernessRewindsTop) {
  BoundaryTagHeap H(TestArena);
  void *P = H.malloc(100);
  uint64_t Footprint = H.footprintBytes();
  H.free(P);
  // Freeing the last chunk merges it into the wilderness: no free chunks.
  EXPECT_EQ(H.freeChunkCount(), 0u);
  void *Q = H.malloc(100);
  EXPECT_EQ(Q, P);
  EXPECT_EQ(H.footprintBytes(), Footprint);
}

TEST(BoundaryTagHeapTest, CoalesceWithPreviousChunk) {
  BoundaryTagHeap H(TestArena);
  void *A = H.malloc(100);
  void *B = H.malloc(100);
  void *Guard = H.malloc(100); // keeps B away from the wilderness
  H.free(A);
  EXPECT_EQ(H.freeChunkCount(), 1u);
  H.free(B); // merges backward with A's chunk
  EXPECT_EQ(H.freeChunkCount(), 1u);
  EXPECT_EQ(H.defragActivity().Coalesces, 1u);
  EXPECT_TRUE(H.verify());
  H.free(Guard);
}

TEST(BoundaryTagHeapTest, CoalesceWithNextChunk) {
  BoundaryTagHeap H(TestArena);
  void *A = H.malloc(100);
  void *B = H.malloc(100);
  void *Guard = H.malloc(100);
  H.free(B);
  EXPECT_EQ(H.freeChunkCount(), 1u);
  H.free(A); // merges forward with B's chunk
  EXPECT_EQ(H.freeChunkCount(), 1u);
  EXPECT_TRUE(H.verify());
  H.free(Guard);
}

TEST(BoundaryTagHeapTest, CoalesceBothSides) {
  BoundaryTagHeap H(TestArena);
  void *A = H.malloc(100);
  void *B = H.malloc(100);
  void *C = H.malloc(100);
  void *Guard = H.malloc(100);
  H.free(A);
  H.free(C);
  EXPECT_EQ(H.freeChunkCount(), 2u);
  H.free(B); // merges with both neighbours
  EXPECT_EQ(H.freeChunkCount(), 1u);
  EXPECT_TRUE(H.verify());
  // The merged chunk serves a request as big as all three.
  void *Big = H.malloc(3 * 100);
  EXPECT_EQ(Big, A);
  H.free(Guard);
  EXPECT_TRUE(H.verify());
}

TEST(BoundaryTagHeapTest, SplitLeavesRemainderInBins) {
  BoundaryTagHeap H(TestArena);
  void *A = H.malloc(1000);
  void *Guard = H.malloc(16);
  H.free(A);
  uint64_t SplitsBefore = H.defragActivity().Splits;
  void *B = H.malloc(100); // takes A's chunk and splits it
  EXPECT_EQ(B, A);
  EXPECT_EQ(H.defragActivity().Splits, SplitsBefore + 1);
  EXPECT_EQ(H.freeChunkCount(), 1u); // the remainder
  EXPECT_TRUE(H.verify());
  (void)Guard;
}

TEST(BoundaryTagHeapTest, BinSearchFindsLargerChunk) {
  BoundaryTagHeap H(TestArena);
  void *A = H.malloc(5000);
  void *Guard = H.malloc(16);
  H.free(A);
  // A smaller request is served from the freed chunk, not the wilderness.
  uint64_t Footprint = H.footprintBytes();
  void *B = H.malloc(200);
  EXPECT_EQ(B, A);
  EXPECT_EQ(H.footprintBytes(), Footprint);
  EXPECT_GT(H.defragActivity().BinProbes, 0u);
  (void)Guard;
}

TEST(BoundaryTagHeapTest, ReallocGrowsIntoWilderness) {
  BoundaryTagHeap H(TestArena);
  auto *P = static_cast<unsigned char *>(H.malloc(100));
  std::memset(P, 0x3C, 100);
  auto *Q = static_cast<unsigned char *>(H.realloc(P, 5000));
  EXPECT_EQ(Q, P); // last chunk extends in place
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(Q[I], 0x3C);
  EXPECT_TRUE(H.verify());
}

TEST(BoundaryTagHeapTest, ReallocGrowsIntoFreeNeighbour) {
  BoundaryTagHeap H(TestArena);
  auto *A = static_cast<unsigned char *>(H.malloc(100));
  void *B = H.malloc(1000);
  void *Guard = H.malloc(16);
  H.free(B);
  std::memset(A, 0x77, 100);
  uint64_t CoalescesBefore = H.defragActivity().Coalesces;
  auto *Grown = static_cast<unsigned char *>(H.realloc(A, 600));
  EXPECT_EQ(Grown, A); // absorbed the free neighbour
  EXPECT_GT(H.defragActivity().Coalesces, CoalescesBefore);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(Grown[I], 0x77);
  EXPECT_TRUE(H.verify());
  (void)Guard;
}

TEST(BoundaryTagHeapTest, ReallocShrinkReturnsTail) {
  BoundaryTagHeap H(TestArena);
  void *A = H.malloc(4096);
  void *Guard = H.malloc(16);
  void *Shrunk = H.realloc(A, 64);
  EXPECT_EQ(Shrunk, A);
  EXPECT_GE(H.freeChunkCount(), 1u); // the tail went back to the bins
  EXPECT_TRUE(H.verify());
  (void)Guard;
}

TEST(BoundaryTagHeapTest, ReallocMovesWhenStuck) {
  BoundaryTagHeap H(TestArena);
  auto *A = static_cast<unsigned char *>(H.malloc(100));
  void *Guard = H.malloc(100); // blocks in-place growth
  std::memset(A, 0x11, 100);
  auto *Moved = static_cast<unsigned char *>(H.realloc(A, 5000));
  ASSERT_NE(Moved, nullptr);
  EXPECT_NE(Moved, A);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(Moved[I], 0x11);
  EXPECT_TRUE(H.verify());
  (void)Guard;
}

TEST(BoundaryTagHeapTest, ResetClearsEverything) {
  BoundaryTagHeap H(TestArena);
  std::vector<void *> Ptrs;
  for (int I = 0; I < 100; ++I)
    Ptrs.push_back(H.malloc(64));
  for (int I = 0; I < 100; I += 2)
    H.free(Ptrs[I]);
  H.reset();
  EXPECT_EQ(H.footprintBytes(), 0u);
  EXPECT_EQ(H.freeChunkCount(), 0u);
  EXPECT_TRUE(H.verify());
  // Allocation starts from the arena base again.
  EXPECT_EQ(H.malloc(64), Ptrs[0]);
}

TEST(BoundaryTagHeapTest, ExhaustionReturnsNull) {
  BoundaryTagHeap H(1 * 1024 * 1024);
  std::vector<void *> Ptrs;
  for (;;) {
    void *P = H.malloc(64 * 1024);
    if (!P)
      break;
    Ptrs.push_back(P);
  }
  EXPECT_GT(Ptrs.size(), 10u);
  EXPECT_TRUE(H.verify());
  // Freeing one makes the next malloc succeed again.
  H.free(Ptrs.back());
  EXPECT_NE(H.malloc(64 * 1024), nullptr);
}

TEST(BoundaryTagHeapTest, RandomizedOperationsKeepHeapConsistent) {
  BoundaryTagHeap H(TestArena);
  Rng R(7);
  struct LiveObject {
    unsigned char *Ptr;
    size_t Size;
    unsigned char Pattern;
  };
  std::vector<LiveObject> Live;
  for (int Step = 0; Step < 8000; ++Step) {
    double Action = R.nextDouble();
    if (Live.empty() || Action < 0.5) {
      size_t Size = 1 + static_cast<size_t>(R.nextLogNormal(4.0, 1.5));
      if (Size > 100000)
        Size = 100000;
      auto *P = static_cast<unsigned char *>(H.malloc(Size));
      ASSERT_NE(P, nullptr);
      auto Pattern = static_cast<unsigned char>(R.next());
      std::memset(P, Pattern, Size);
      Live.push_back({P, Size, Pattern});
    } else if (Action < 0.85) {
      size_t Index = R.nextBelow(Live.size());
      LiveObject Object = Live[Index];
      for (size_t I = 0; I < Object.Size; I += 61)
        ASSERT_EQ(Object.Ptr[I], Object.Pattern);
      H.free(Object.Ptr);
      Live[Index] = Live.back();
      Live.pop_back();
    } else {
      size_t Index = R.nextBelow(Live.size());
      LiveObject &Object = Live[Index];
      size_t NewSize = 1 + static_cast<size_t>(R.nextLogNormal(4.0, 1.5));
      if (NewSize > 100000)
        NewSize = 100000;
      auto *P = static_cast<unsigned char *>(H.realloc(Object.Ptr, NewSize));
      ASSERT_NE(P, nullptr);
      size_t Preserved = Object.Size < NewSize ? Object.Size : NewSize;
      for (size_t I = 0; I < Preserved; I += 61)
        ASSERT_EQ(P[I], Object.Pattern);
      Object.Ptr = P;
      Object.Size = NewSize;
      std::memset(P, Object.Pattern, NewSize);
    }
    if (Step % 500 == 0) {
      ASSERT_TRUE(H.verify()) << "heap corrupt at step " << Step;
    }
  }
  ASSERT_TRUE(H.verify());
  for (const LiveObject &Object : Live)
    H.free(Object.Ptr);
  ASSERT_TRUE(H.verify());
}

TEST(ZendDefaultAllocatorTest, BulkFreeDiscardsTheHeap) {
  ZendDefaultAllocator A;
  std::vector<void *> FirstRound;
  for (int I = 0; I < 100; ++I)
    FirstRound.push_back(A.allocate(64));
  A.freeAll();
  EXPECT_EQ(A.stats().UsableBytesLive, 0u);
  // Same addresses again: the heap was reset wholesale.
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.allocate(64), FirstRound[I]);
  EXPECT_TRUE(A.verifyHeap());
}

TEST(ZendDefaultAllocatorTest, DefragActivityAccumulates) {
  ZendDefaultAllocator A;
  void *P1 = A.allocate(100);
  void *P2 = A.allocate(100);
  void *Guard = A.allocate(100);
  A.deallocate(P1);
  A.deallocate(P2);
  EXPECT_GT(A.defragActivity().Coalesces, 0u);
  void *Small = A.allocate(32); // split of the merged chunk
  EXPECT_GT(A.defragActivity().Splits, 0u);
  (void)Guard;
  (void)Small;
}

TEST(ZendDefaultAllocatorTest, HeadersMakeObjectsFartherApart) {
  // The paper attributes part of the default allocator's cache pressure to
  // per-object headers; two back-to-back allocations are > size apart.
  ZendDefaultAllocator A;
  auto *P1 = static_cast<std::byte *>(A.allocate(64));
  auto *P2 = static_cast<std::byte *>(A.allocate(64));
  EXPECT_GE(P2 - P1, 64 + 8);
}

namespace {

/// Defragmentation counters of the heap behind \p RT's allocator after
/// \p Transactions generated transactions.
DefragActivity activityAfter(AllocatorKind Kind, bool BulkFree,
                             unsigned Transactions) {
  RuntimeConfig Config;
  Config.Kind = Kind;
  Config.UseBulkFree = BulkFree;
  Config.LeakFraction = BulkFree ? 0.0 : 0.05;
  Config.Scale = 0.02;
  Config.Seed = 31;
  TransactionRuntime RT(mediaWikiReadOnly(), Config);
  for (unsigned I = 0; I < Transactions; ++I)
    EXPECT_EQ(RT.executeTransaction(), TxStatus::Ok);
  if (auto *Zend = dynamic_cast<ZendDefaultAllocator *>(&RT.allocator()))
    return Zend->defragActivity();
  return dynamic_cast<GlibcModelAllocator &>(RT.allocator()).defragActivity();
}

std::string render(const DefragActivity &A) {
  return std::to_string(A.Coalesces) + " " + std::to_string(A.Splits) + " " +
         std::to_string(A.BinProbes) + " " + std::to_string(A.ListScans);
}

} // namespace

TEST(BoundaryTagHeapTest, DefragActivityOverAGeneratedWorkloadIsPinned) {
  // Captured before bin searches skipped empty bins with a bitmap: the
  // skipped bins still count as probes, so every counter is unchanged.
  EXPECT_EQ(render(activityAfter(AllocatorKind::Default, true, 4)),
            "2378 2968 128327 7");
  EXPECT_EQ(render(activityAfter(AllocatorKind::Glibc, false, 4)),
            "3930 3703 88372 312");
}
