//===- tests/core/RegionAllocatorTest.cpp - Region allocator tests --------===//

#include "core/ObstackAllocator.h"
#include "core/RegionAllocator.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

using namespace ddm;

namespace {

AllocatorOptions smallRegion() {
  AllocatorOptions Options;
  Options.RegionChunkBytes = 1 * 1024 * 1024;
  return Options;
}

AllocatorOptions smallObstack() {
  AllocatorOptions Options;
  Options.HeapReserveBytes = 4 * 1024 * 1024;
  return Options;
}

} // namespace

TEST(RegionAllocatorTest, BumpAllocationIsContiguous) {
  RegionAllocator A(smallRegion());
  auto *P1 = static_cast<std::byte *>(A.allocate(10)); // rounds to 16
  auto *P2 = static_cast<std::byte *>(A.allocate(8));
  auto *P3 = static_cast<std::byte *>(A.allocate(1));
  EXPECT_EQ(P2 - P1, 16);
  EXPECT_EQ(P3 - P2, 8);
}

TEST(RegionAllocatorTest, RoundsToMultipleOf8) {
  RegionAllocator A(smallRegion());
  auto *P1 = static_cast<std::byte *>(A.allocate(1));
  auto *P2 = static_cast<std::byte *>(A.allocate(1));
  EXPECT_EQ(P2 - P1, 8);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P1) % 8, 0u);
}

TEST(RegionAllocatorTest, DeallocateDoesNotReuse) {
  RegionAllocator A(smallRegion());
  void *P1 = A.allocate(64);
  A.deallocate(P1);
  void *P2 = A.allocate(64);
  // No per-object free: the space is not reused.
  EXPECT_NE(P2, P1);
  EXPECT_FALSE(A.supportsPerObjectFree());
}

TEST(RegionAllocatorTest, ContentSurvivesDeallocate) {
  // Free reclaims nothing until freeAll, so the bytes stay intact — except
  // the first word, which free stamps with the double-free dead mark.
  RegionAllocator A(smallRegion());
  auto *P = static_cast<unsigned char *>(A.allocate(100));
  std::memset(P, 0x42, 100);
  A.deallocate(P);
  A.allocate(100);
  for (int I = 8; I < 100; ++I)
    EXPECT_EQ(P[I], 0x42);
}

TEST(RegionAllocatorTest, FreeAllResetsTheBump) {
  RegionAllocator A(smallRegion());
  void *P1 = A.allocate(100);
  A.allocate(200);
  A.freeAll();
  EXPECT_EQ(A.allocate(100), P1);
  EXPECT_EQ(A.memoryConsumption(), 104u); // 100 rounds to 104
}

TEST(RegionAllocatorTest, OverflowsIntoNextChunk) {
  RegionAllocator A(smallRegion());
  // Fill most of the first 1 MB chunk.
  A.allocate(1024 * 1024 - 64);
  EXPECT_EQ(A.numChunks(), 1u);
  void *P = A.allocate(128); // does not fit: new chunk
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(A.numChunks(), 2u);
  // freeAll keeps the chunks but rewinds to the first.
  A.freeAll();
  EXPECT_EQ(A.memoryConsumption(), 0u);
}

TEST(RegionAllocatorTest, ExhaustionReturnsNull) {
  RegionAllocator A(smallRegion());
  for (size_t I = 0; I < RegionAllocator::MaxChunks; ++I)
    ASSERT_NE(A.allocate(1024 * 1024 - 64), nullptr);
  EXPECT_EQ(A.allocate(1024 * 1024 - 64), nullptr);
  // An over-chunk-size request can never be served.
  EXPECT_EQ(A.allocate(2 * 1024 * 1024), nullptr);
}

TEST(RegionAllocatorTest, MemoryConsumptionIsTotalAllocated) {
  RegionAllocator A(smallRegion());
  A.allocate(100); // 104
  A.allocate(100); // 104
  void *P = A.allocate(50); // 56
  A.deallocate(P);          // does not shrink consumption
  EXPECT_EQ(A.memoryConsumption(), 104u + 104 + 56);
}

TEST(RegionAllocatorTest, ReallocAlwaysCopiesForward) {
  RegionAllocator A(smallRegion());
  auto *P = static_cast<unsigned char *>(A.allocate(32));
  std::memset(P, 0x99, 32);
  auto *Q = static_cast<unsigned char *>(A.reallocate(P, 32, 200));
  ASSERT_NE(Q, nullptr);
  EXPECT_NE(Q, P);
  for (int I = 0; I < 32; ++I)
    EXPECT_EQ(Q[I], 0x99);
  // Shrinking (within the rounded size) keeps the pointer.
  EXPECT_EQ(A.reallocate(Q, 200, 100), Q);
}

TEST(RegionAllocatorTest, StatsCountCalls) {
  RegionAllocator A(smallRegion());
  void *P = A.allocate(10);
  A.deallocate(P);
  A.freeAll();
  EXPECT_EQ(A.stats().MallocCalls, 1u);
  EXPECT_EQ(A.stats().FreeCalls, 1u);
  EXPECT_EQ(A.stats().FreeAllCalls, 1u);
}

TEST(RegionAllocatorTest, RestartOnRecycledBuddyPagesSeesNoStaleDeadMarks) {
  // A restarted process builds a new region heap on the pages the dead
  // one gave back. Nothing overwrites a 1-3 byte object, so the dead
  // heap's free marks are still there when the new heap hands the same
  // addresses out again; freeing them must not read as a double free.
  AllocatorOptions Config = smallRegion();
  Config.Backend = createBuddyBackend(16 * 1024 * 1024);
  std::vector<void *> Addresses;
  {
    RegionAllocator Dead(Config);
    for (int I = 0; I < 30; ++I)
      Addresses.push_back(Dead.allocate(1 + I % 3));
    for (void *P : Addresses)
      Dead.deallocate(P);
  }
  RegionAllocator Fresh(Config);
  for (int I = 0; I < 30; ++I) {
    void *P = Fresh.allocate(1 + I % 3);
    ASSERT_EQ(P, Addresses[I]) << "the new heap did not reuse the pages";
    Fresh.deallocate(P);
  }
  EXPECT_EQ(Fresh.stats().FreeCalls, 30u);
  // A real double free in the new heap is still caught.
  EXPECT_DEATH(Fresh.deallocate(Addresses[0]),
               "double free of a region object");
}

TEST(ObstackAllocatorTest, BumpAndChunkGrowth) {
  ObstackAllocator A(smallObstack());
  EXPECT_EQ(A.numChunksUsed(), 1u);
  // ~4 KB chunks fill after a handful of 1 KB objects.
  for (int I = 0; I < 8; ++I)
    ASSERT_NE(A.allocate(1000), nullptr);
  EXPECT_GT(A.numChunksUsed(), 1u);
}

TEST(ObstackAllocatorTest, OversizedObjectGetsItsOwnChunk) {
  ObstackAllocator A(smallObstack());
  void *P = A.allocate(100000);
  ASSERT_NE(P, nullptr);
  auto *Q = static_cast<unsigned char *>(P);
  std::memset(Q, 0xEE, 100000);
  EXPECT_EQ(Q[99999], 0xEE);
}

TEST(ObstackAllocatorTest, FreeAllRewinds) {
  ObstackAllocator A(smallObstack());
  void *First = A.allocate(64);
  for (int I = 0; I < 100; ++I)
    A.allocate(512);
  A.freeAll();
  EXPECT_EQ(A.numChunksUsed(), 1u);
  EXPECT_EQ(A.allocate(64), First);
}

TEST(ObstackAllocatorTest, NoPerObjectFree) {
  ObstackAllocator A;
  EXPECT_FALSE(A.supportsPerObjectFree());
  void *P1 = A.allocate(64);
  A.deallocate(P1);
  EXPECT_NE(A.allocate(64), P1);
}

TEST(ObstackAllocatorTest, RestartOnRecycledBuddyPagesSeesNoStaleDeadMarks) {
  // The obstack twin of the region test above: a new obstack heap on the
  // pages its dead predecessor gave back must not read the dead heap's
  // free marks on 1-3 byte objects as double frees.
  AllocatorOptions Config = smallObstack();
  Config.Backend = createBuddyBackend(16 * 1024 * 1024);
  std::vector<void *> Addresses;
  {
    ObstackAllocator Dead(Config);
    for (int I = 0; I < 30; ++I)
      Addresses.push_back(Dead.allocate(1 + I % 3));
    for (void *P : Addresses)
      Dead.deallocate(P);
  }
  ObstackAllocator Fresh(Config);
  for (int I = 0; I < 30; ++I) {
    void *P = Fresh.allocate(1 + I % 3);
    ASSERT_EQ(P, Addresses[I]) << "the new heap did not reuse the pages";
    Fresh.deallocate(P);
  }
  EXPECT_EQ(Fresh.stats().FreeCalls, 30u);
  // A real double free in the new heap is still caught.
  EXPECT_DEATH(Fresh.deallocate(Addresses[0]),
               "double free of an obstack object");
}
