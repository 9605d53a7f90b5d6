//===- tests/core/TCMallocModelTest.cpp - TCmalloc model tests ------------===//

#include "core/TCMallocModel.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

using namespace ddm;

namespace {

AllocatorOptions smallConfig() {
  AllocatorOptions Options;
  Options.HeapReserveBytes = 64ull * 1024 * 1024;
  return Options;
}

constexpr size_t Threshold = TCMallocModelAllocator::ScavengeThresholdBytes;

} // namespace

TEST(TCMallocModelTest, FreedObjectsComeBackFromTheCache) {
  TCMallocModelAllocator A(smallConfig());
  void *P = A.allocate(64);
  A.deallocate(P);
  EXPECT_EQ(A.allocate(64), P); // LIFO thread cache
}

TEST(TCMallocModelTest, CacheBytesTrackFrees) {
  TCMallocModelAllocator A(smallConfig());
  void *P = A.allocate(256); // carves a span into the cache first
  uint64_t Before = A.threadCacheBytes();
  A.deallocate(P);
  EXPECT_EQ(A.threadCacheBytes(), Before + 256);
  void *Q = A.allocate(256);
  EXPECT_EQ(A.threadCacheBytes(), Before);
  A.deallocate(Q);
}

TEST(TCMallocModelTest, ScavengeTriggersExactlyAtThreshold) {
  TCMallocModelAllocator A(smallConfig());
  // Allocate enough objects, then free them all: the cache grows past the
  // threshold and must scavenge (the paper's "delayed defragmentation").
  std::vector<void *> Ptrs;
  for (size_t I = 0; I < Threshold / 128 + 2000; ++I)
    Ptrs.push_back(A.allocate(128));
  EXPECT_EQ(A.scavengeCount(), 0u);
  for (void *P : Ptrs)
    A.deallocate(P);
  EXPECT_GT(A.scavengeCount(), 0u);
  // After a scavenge the cache shrank back under the threshold.
  EXPECT_LE(A.threadCacheBytes(), Threshold);
}

TEST(TCMallocModelTest, RefillPullsFromCentralAfterScavenge) {
  TCMallocModelAllocator A(smallConfig());
  const size_t Objects = Threshold / 64 + 1000;
  std::vector<void *> Ptrs;
  for (size_t I = 0; I < Objects; ++I)
    Ptrs.push_back(A.allocate(64));
  for (void *P : Ptrs)
    A.deallocate(P);
  ASSERT_GT(A.scavengeCount(), 0u);
  uint64_t ConsumptionAfter = A.memoryConsumption();
  // Re-allocating must reuse central stock, not grow the heap.
  for (size_t I = 0; I < Objects; ++I)
    ASSERT_NE(A.allocate(64), nullptr);
  EXPECT_EQ(A.memoryConsumption(), ConsumptionAfter);
}

TEST(TCMallocModelTest, LargeObjectsUsePageRuns) {
  TCMallocModelAllocator A(smallConfig());
  void *P = A.allocate(100 * 1024);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % (8 * 1024), 0u);
  EXPECT_EQ(A.usableSize(P), 104u * 1024); // 13 pages
  A.deallocate(P);
  EXPECT_EQ(A.central()->Runs.runCount(), 1u);
  // The freed run is reused.
  EXPECT_EQ(A.allocate(100 * 1024), P);
}

TEST(TCMallocModelTest, AdjacentLargeRunsCoalesce) {
  TCMallocModelAllocator A(smallConfig());
  void *P1 = A.allocate(64 * 1024);
  void *P2 = A.allocate(64 * 1024);
  void *Guard = A.allocate(64 * 1024);
  A.deallocate(P1);
  A.deallocate(P2);
  EXPECT_EQ(A.central()->Runs.runCount(), 1u); // merged into one run
  EXPECT_TRUE(A.central()->Runs.verify());
  // The merged run serves a double-size object.
  EXPECT_EQ(A.allocate(128 * 1024), P1);
  (void)Guard;
}

TEST(TCMallocModelTest, UsableSizeMatchesClassSize) {
  TCMallocModelAllocator A(smallConfig());
  void *P = A.allocate(100);
  EXPECT_EQ(A.usableSize(P), 104u);
}

TEST(TCMallocModelTest, ReallocPreservesContent) {
  TCMallocModelAllocator A(smallConfig());
  auto *P = static_cast<unsigned char *>(A.allocate(64));
  std::memset(P, 0x21, 64);
  auto *Q = static_cast<unsigned char *>(A.reallocate(P, 64, 1024));
  ASSERT_NE(Q, nullptr);
  for (int I = 0; I < 64; ++I)
    EXPECT_EQ(Q[I], 0x21);
}

TEST(TCMallocModelTest, NoBulkFree) {
  TCMallocModelAllocator A(smallConfig());
  EXPECT_FALSE(A.supportsBulkFree());
  EXPECT_TRUE(A.supportsPerObjectFree());
}

TEST(TCMallocModelTest, RandomizedIntegrity) {
  TCMallocModelAllocator A(smallConfig());
  Rng R(11);
  struct LiveObject {
    unsigned char *Ptr;
    size_t Size;
    unsigned char Pattern;
  };
  std::vector<LiveObject> Live;
  for (int Step = 0; Step < 10000; ++Step) {
    if (Live.empty() || R.nextBool(0.52)) {
      size_t Size = 1 + static_cast<size_t>(R.nextLogNormal(3.5, 1.3));
      if (Size > 50000)
        Size = 50000;
      auto *P = static_cast<unsigned char *>(A.allocate(Size));
      ASSERT_NE(P, nullptr);
      auto Pattern = static_cast<unsigned char>(R.next());
      std::memset(P, Pattern, Size);
      Live.push_back({P, Size, Pattern});
    } else {
      size_t Index = R.nextBelow(Live.size());
      LiveObject Object = Live[Index];
      for (size_t I = 0; I < Object.Size; I += 83)
        ASSERT_EQ(Object.Ptr[I], Object.Pattern);
      A.deallocate(Object.Ptr);
      Live[Index] = Live.back();
      Live.pop_back();
    }
  }
  EXPECT_TRUE(A.central()->Runs.verify());
}
