//===- tests/core/HoardModelTest.cpp - Hoard model tests ------------------===//

#include "core/HoardModel.h"
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

/// Objects a 64 KB superblock can hold after its 64-byte header pad.
size_t capacityFor(size_t ClassSize) {
  return (HoardModelAllocator::SuperblockBytes - 64) / ClassSize;
}

} // namespace

TEST(HoardModelTest, ObjectsComeFromOneSuperblock) {
  HoardModelAllocator A(smallConfig());
  auto *P1 = static_cast<std::byte *>(A.allocate(64));
  auto *P2 = static_cast<std::byte *>(A.allocate(64));
  EXPECT_EQ(P2 - P1, 64);
  // Both live in the same superblock.
  auto Sb = HoardModelAllocator::SuperblockBytes;
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P1) / Sb,
            reinterpret_cast<uintptr_t>(P2) / Sb);
}

TEST(HoardModelTest, FreedObjectReusedLifo) {
  HoardModelAllocator A(smallConfig());
  void *P = A.allocate(64);
  A.allocate(64);
  A.deallocate(P);
  EXPECT_EQ(A.allocate(64), P);
}

TEST(HoardModelTest, FullSuperblockLeavesAvailableList) {
  HoardModelAllocator A(smallConfig());
  size_t Capacity = capacityFor(64);
  std::vector<void *> Ptrs;
  for (size_t I = 0; I < Capacity; ++I)
    Ptrs.push_back(A.allocate(64));
  EXPECT_EQ(A.superblocksInUse(), 1u);
  // The next allocation needs a second superblock.
  void *Extra = A.allocate(64);
  ASSERT_NE(Extra, nullptr);
  EXPECT_EQ(A.superblocksInUse(), 2u);
  // Freeing into the full superblock puts it back in rotation: the free
  // slot is reused before any third superblock appears.
  A.deallocate(Ptrs[0]);
  std::vector<void *> More;
  for (size_t I = 0; I + 1 < capacityFor(64); ++I)
    More.push_back(A.allocate(64));
  EXPECT_EQ(A.superblocksInUse(), 2u);
}

TEST(HoardModelTest, EmptySuperblockReturnsToGlobalPool) {
  HoardModelAllocator A(smallConfig());
  std::vector<void *> Ptrs;
  for (int I = 0; I < 10; ++I)
    Ptrs.push_back(A.allocate(64));
  EXPECT_EQ(A.emptyPoolSize(), 0u);
  for (void *P : Ptrs)
    A.deallocate(P);
  EXPECT_EQ(A.emptyPoolSize(), 1u);
  // The pooled superblock is re-purposed for a different size class.
  void *Q = A.allocate(500);
  EXPECT_EQ(A.emptyPoolSize(), 0u);
  EXPECT_EQ(A.superblocksInUse(), 1u); // no new superblock was carved
  ASSERT_NE(Q, nullptr);
}

TEST(HoardModelTest, LargeObjectsBypassSuperblocks) {
  HoardModelAllocator A(smallConfig());
  void *P = A.allocate(200 * 1024);
  ASSERT_NE(P, nullptr);
  auto Sb = HoardModelAllocator::SuperblockBytes;
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % Sb, 0u);
  EXPECT_EQ(A.usableSize(P), 4 * Sb); // 256 KB
  std::memset(P, 0xAD, 200 * 1024);
  A.deallocate(P);
  // Freed large runs are reused.
  EXPECT_EQ(A.allocate(200 * 1024), P);
}

// A fresh small-object superblock comes from the frontier only: a freed
// large run stays free for large objects, as the Ruby figures assume.
TEST(HoardModelTest, FreshSuperblocksNeverReuseLargeRuns) {
  HoardModelAllocator A(smallConfig());
  auto *Large = static_cast<std::byte *>(A.allocate(200 * 1024));
  ASSERT_NE(Large, nullptr);
  A.deallocate(Large);
  EXPECT_EQ(A.superblocksInUse(), 4u);
  auto *Small = static_cast<std::byte *>(A.allocate(64));
  ASSERT_NE(Small, nullptr);
  EXPECT_EQ(A.superblocksInUse(), 5u);
  EXPECT_GE(Small, Large + 4 * HoardModelAllocator::SuperblockBytes);
  EXPECT_EQ(A.central()->Runs.runCount(), 1u);
  EXPECT_TRUE(A.central()->Runs.verify());
}

TEST(HoardModelTest, UsableSizeFromSuperblockHeader) {
  HoardModelAllocator A(smallConfig());
  void *P = A.allocate(200);
  EXPECT_EQ(A.usableSize(P), 224u);
}

TEST(HoardModelTest, ReallocPreservesContent) {
  HoardModelAllocator A(smallConfig());
  auto *P = static_cast<unsigned char *>(A.allocate(48));
  std::memset(P, 0x66, 48);
  auto *Q = static_cast<unsigned char *>(A.reallocate(P, 48, 2000));
  ASSERT_NE(Q, nullptr);
  for (int I = 0; I < 48; ++I)
    EXPECT_EQ(Q[I], 0x66);
}

TEST(HoardModelTest, NoBulkFree) {
  HoardModelAllocator A(smallConfig());
  EXPECT_FALSE(A.supportsBulkFree());
  EXPECT_TRUE(A.supportsPerObjectFree());
}

TEST(HoardModelTest, RandomizedIntegrity) {
  HoardModelAllocator A(smallConfig());
  Rng R(13);
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
