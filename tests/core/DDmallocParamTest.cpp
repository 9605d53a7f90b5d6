//===- tests/core/DDmallocParamTest.cpp - DDmalloc parameter sweeps -------===//
///
/// \file
/// Property tests of DDmalloc across its tuning space: segment sizes
/// (the paper's Section 3.2 parameter), process ids (metadata coloring),
/// and random operation mixes. Parameterized over (segment size, seed).
///
//===----------------------------------------------------------------------===//

#include "core/DDmalloc.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

using namespace ddm;

namespace {

class DDmallocParamTest
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {
protected:
  size_t segmentSize() const { return std::get<0>(GetParam()); }
  uint64_t seed() const { return std::get<1>(GetParam()); }

  AllocatorOptions config() const {
    AllocatorOptions Config;
    Config.SegmentSize = segmentSize();
    Config.HeapReserveBytes = 64ull * 1024 * 1024;
    return Config;
  }
};

} // namespace

TEST_P(DDmallocParamTest, SegmentAlignmentHoldsForLargeObjects) {
  DDmallocAllocator A(config());
  size_t Threshold = segmentSize() / 2;
  void *P = A.allocate(Threshold + 1);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % segmentSize(), 0u);
  EXPECT_EQ(A.usableSize(P), segmentSize());
}

TEST_P(DDmallocParamTest, ObjectsNeverOverlapUnderChurn) {
  DDmallocAllocator A(config());
  Rng R(seed());
  std::map<uintptr_t, size_t> Live;
  std::vector<void *> Order;
  size_t MaxSize = segmentSize(); // exercises both small and large paths
  for (int Step = 0; Step < 5000; ++Step) {
    if (Order.empty() || R.nextBool(0.6)) {
      size_t Size = 1 + R.nextBelow(MaxSize);
      void *P = A.allocate(Size);
      ASSERT_NE(P, nullptr);
      auto Start = reinterpret_cast<uintptr_t>(P);
      size_t Usable = A.usableSize(P);
      auto After = Live.lower_bound(Start);
      if (After != Live.end()) {
        ASSERT_LE(Start + Usable, After->first);
      }
      if (After != Live.begin()) {
        auto Before = std::prev(After);
        ASSERT_LE(Before->first + Before->second, Start);
      }
      Live.emplace(Start, Usable);
      Order.push_back(P);
    } else {
      size_t Index = R.nextBelow(Order.size());
      Live.erase(reinterpret_cast<uintptr_t>(Order[Index]));
      A.deallocate(Order[Index]);
      Order[Index] = Order.back();
      Order.pop_back();
    }
  }
}

TEST_P(DDmallocParamTest, FreeAllAlwaysRestoresDeterminism) {
  DDmallocAllocator A(config());
  Rng R(seed());
  // Random churn, then freeAll, then a fixed allocation script must land
  // on the same addresses as on a fresh heap.
  for (int I = 0; I < 2000; ++I) {
    void *P = A.allocate(1 + R.nextBelow(4096));
    if (R.nextBool(0.7))
      A.deallocate(P);
  }
  A.freeAll();
  std::vector<void *> AfterChurn;
  for (size_t Size : {16ul, 100ul, 1000ul, 5000ul})
    AfterChurn.push_back(A.allocate(Size));

  DDmallocAllocator Fresh(config());
  std::vector<void *> FromFresh;
  for (size_t Size : {16ul, 100ul, 1000ul, 5000ul})
    FromFresh.push_back(Fresh.allocate(Size));
  // The arenas map at different bases; the allocation pattern relative to
  // the first object must be identical.
  for (size_t I = 1; I < AfterChurn.size(); ++I) {
    auto DeltaA = reinterpret_cast<uintptr_t>(AfterChurn[I]) -
                  reinterpret_cast<uintptr_t>(AfterChurn[0]);
    auto DeltaB = reinterpret_cast<uintptr_t>(FromFresh[I]) -
                  reinterpret_cast<uintptr_t>(FromFresh[0]);
    EXPECT_EQ(DeltaA, DeltaB) << "allocation " << I;
  }
}

TEST_P(DDmallocParamTest, UsableSizeAlwaysCoversRequest) {
  DDmallocAllocator A(config());
  Rng R(seed() ^ 0x77);
  for (int I = 0; I < 2000; ++I) {
    // Up to one segment: exercises small classes plus single-segment
    // large objects (multi-segment ones never reuse freed space by
    // design, so an 80%-free loop would exhaust the test heap).
    size_t Size = 1 + R.nextBelow(segmentSize());
    void *P = A.allocate(Size);
    ASSERT_NE(P, nullptr);
    EXPECT_GE(A.usableSize(P), Size);
    if (R.nextBool(0.8))
      A.deallocate(P);
  }
}

TEST_P(DDmallocParamTest, ConsumptionIsSegmentGranular) {
  DDmallocAllocator A(config());
  Rng R(seed());
  for (int I = 0; I < 1000; ++I)
    A.allocate(1 + R.nextBelow(1000));
  uint64_t Consumption = A.memoryConsumption();
  EXPECT_EQ((Consumption - A.metadataBytes()) % segmentSize(), 0u);
  EXPECT_EQ(A.segmentsInUse() * segmentSize() + A.metadataBytes(),
            Consumption);
}

TEST_P(DDmallocParamTest, SmallerSegmentsConsumeLessForSparseClasses) {
  // One object per class: consumption = classes-touched * segment size.
  AllocatorOptions Small = config();
  Small.SegmentSize = 8 * 1024;
  AllocatorOptions Large = config();
  Large.SegmentSize = 64 * 1024;
  DDmallocAllocator As(Small), Al(Large);
  for (size_t Size = 8; Size <= 512; Size += 8) {
    As.allocate(Size);
    Al.allocate(Size);
  }
  EXPECT_LT(As.memoryConsumption(), Al.memoryConsumption());
}

INSTANTIATE_TEST_SUITE_P(
    SegmentSweep, DDmallocParamTest,
    ::testing::Combine(::testing::Values(size_t(8192), size_t(16384),
                                         size_t(32768), size_t(65536)),
                       ::testing::Values(1u, 2u)),
    [](const ::testing::TestParamInfo<std::tuple<size_t, uint64_t>> &Info) {
      return "seg" + std::to_string(std::get<0>(Info.param) / 1024) + "k_seed" +
             std::to_string(std::get<1>(Info.param));
    });

TEST(DDmallocColoringTest, OffsetsCycleWithinHalfASegment) {
  for (uint32_t Pid = 0; Pid < 64; ++Pid) {
    AllocatorOptions Config;
    Config.ProcessId = Pid;
    Config.HeapReserveBytes = 16ull * 1024 * 1024;
    DDmallocAllocator A(Config);
    EXPECT_LT(A.metadataOffset(), Config.SegmentSize / 2);
    EXPECT_EQ(A.metadataOffset() % 64, 0u);
    // The allocator works regardless of the offset.
    void *P = A.allocate(64);
    ASSERT_NE(P, nullptr);
    A.deallocate(P);
    A.freeAll();
  }
}

TEST(DDmallocColoringTest, NeighbouringPidsLandInDifferentSets) {
  // Two adjacent process ids must not map their metadata to the same
  // 64-byte-line offset (that is the point of the coloring).
  AllocatorOptions C0, C1;
  C0.ProcessId = 0;
  C1.ProcessId = 1;
  C0.HeapReserveBytes = C1.HeapReserveBytes = 16ull * 1024 * 1024;
  DDmallocAllocator A0(C0), A1(C1);
  EXPECT_NE(A0.metadataOffset() / 64 % 128, A1.metadataOffset() / 64 % 128);
}
