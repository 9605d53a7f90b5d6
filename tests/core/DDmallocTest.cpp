//===- tests/core/DDmallocTest.cpp - DDmalloc unit tests ------------------===//

#include "core/DDmalloc.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

using namespace ddm;

namespace {

AllocatorOptions smallHeapConfig() {
  AllocatorOptions Options;
  Options.HeapReserveBytes = 16ull * 1024 * 1024;
  return Options;
}

} // namespace

TEST(DDmallocTest, ReturnsAlignedNonNull) {
  DDmallocAllocator A(smallHeapConfig());
  for (size_t Size : {0ul, 1ul, 7ul, 8ul, 100ul, 512ul, 4000ul}) {
    void *P = A.allocate(Size);
    ASSERT_NE(P, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % 8, 0u);
    EXPECT_TRUE(A.owns(P));
  }
}

TEST(DDmallocTest, LazySegmentCarving) {
  // Paper Figure 3: the first malloc of a class takes a fresh segment's
  // first object; the next malloc takes the adjacent object.
  DDmallocAllocator A(smallHeapConfig());
  auto *First = static_cast<std::byte *>(A.allocate(100)); // class 104
  auto *Second = static_cast<std::byte *>(A.allocate(100));
  EXPECT_EQ(Second, First + 104);
  // The first object of a segment starts at the segment base.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(First) % A.options().SegmentSize, 0u);
}

TEST(DDmallocTest, FreedObjectsReusedInLifoOrder) {
  DDmallocAllocator A(smallHeapConfig());
  void *P1 = A.allocate(64);
  void *P2 = A.allocate(64);
  void *P3 = A.allocate(64);
  A.deallocate(P1);
  A.deallocate(P2);
  A.deallocate(P3);
  // LIFO: the most recently freed object comes back first.
  EXPECT_EQ(A.allocate(64), P3);
  EXPECT_EQ(A.allocate(64), P2);
  EXPECT_EQ(A.allocate(64), P1);
}

TEST(DDmallocTest, ClassesDoNotShareFreeLists) {
  DDmallocAllocator A(smallHeapConfig());
  void *P64 = A.allocate(64);
  A.deallocate(P64);
  // A different class must not pick up the freed 64-byte object.
  void *P128 = A.allocate(128);
  EXPECT_NE(P128, P64);
  // The same class does.
  EXPECT_EQ(A.allocate(64), P64);
}

TEST(DDmallocTest, NoPerObjectHeaders) {
  // Objects of one class are exactly class-size apart: no header bytes.
  DDmallocAllocator A(smallHeapConfig());
  auto *P1 = static_cast<std::byte *>(A.allocate(40));
  auto *P2 = static_cast<std::byte *>(A.allocate(40));
  EXPECT_EQ(P2 - P1, 40);
}

TEST(DDmallocTest, UsableSizeIsClassSize) {
  DDmallocAllocator A(smallHeapConfig());
  void *P = A.allocate(100);
  EXPECT_EQ(A.usableSize(P), 104u);
  void *Q = A.allocate(600);
  EXPECT_EQ(A.usableSize(Q), 1024u);
}

TEST(DDmallocTest, LargeObjectsTakeWholeSegments) {
  DDmallocAllocator A(smallHeapConfig());
  size_t SegmentSize = A.options().SegmentSize;
  void *P = A.allocate(SegmentSize / 2 + 1); // just over the threshold
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % SegmentSize, 0u);
  EXPECT_EQ(A.usableSize(P), SegmentSize);

  void *Q = A.allocate(3 * SegmentSize - 100);
  ASSERT_NE(Q, nullptr);
  EXPECT_EQ(A.usableSize(Q), 3 * SegmentSize);
  A.deallocate(Q);
  A.deallocate(P);
}

TEST(DDmallocTest, FreedLargeSegmentsAreReused) {
  DDmallocAllocator A(smallHeapConfig());
  size_t SegmentSize = A.options().SegmentSize;
  void *P = A.allocate(SegmentSize);
  uint64_t UsedAfterFirst = A.segmentsInUse();
  A.deallocate(P);
  void *Q = A.allocate(SegmentSize);
  EXPECT_EQ(Q, P);
  EXPECT_EQ(A.segmentsInUse(), UsedAfterFirst);
}

TEST(DDmallocTest, FreeAllRestoresInitialState) {
  DDmallocAllocator A(smallHeapConfig());
  std::vector<void *> FirstRound;
  Rng R(1);
  for (int I = 0; I < 1000; ++I)
    FirstRound.push_back(A.allocate(R.nextInRange(1, 2000)));
  EXPECT_GT(A.segmentsInUse(), 0u);

  A.freeAll();
  EXPECT_EQ(A.segmentsInUse(), 0u);
  EXPECT_EQ(A.stats().UsableBytesLive, 0u);

  // The exact same addresses come back in the same order: the heap is in
  // its initial state again.
  R.reseed(1);
  for (int I = 0; I < 1000; ++I)
    EXPECT_EQ(A.allocate(R.nextInRange(1, 2000)), FirstRound[I]);
}

TEST(DDmallocTest, FreeAllWorksAfterEverythingWasFreedPerObject) {
  // The paper: "applications need to call freeAll even if all of the
  // objects in the heap have already been freed by per-object free".
  DDmallocAllocator A(smallHeapConfig());
  void *P = A.allocate(64);
  A.deallocate(P);
  A.freeAll();
  EXPECT_EQ(A.segmentsInUse(), 0u);
  EXPECT_NE(A.allocate(64), nullptr);
}

TEST(DDmallocTest, ReallocSameClassKeepsPointer) {
  DDmallocAllocator A(smallHeapConfig());
  void *P = A.allocate(100); // class 104
  std::memset(P, 0x5A, 100);
  EXPECT_EQ(A.reallocate(P, 100, 104), P);
  EXPECT_EQ(A.reallocate(P, 104, 97), P);
}

TEST(DDmallocTest, ReallocGrowCopiesContent) {
  DDmallocAllocator A(smallHeapConfig());
  auto *P = static_cast<unsigned char *>(A.allocate(64));
  for (int I = 0; I < 64; ++I)
    P[I] = static_cast<unsigned char>(I);
  auto *Q = static_cast<unsigned char *>(A.reallocate(P, 64, 512));
  ASSERT_NE(Q, nullptr);
  EXPECT_NE(Q, P);
  for (int I = 0; I < 64; ++I)
    EXPECT_EQ(Q[I], static_cast<unsigned char>(I));
  EXPECT_GE(A.usableSize(Q), 512u);
}

TEST(DDmallocTest, ReallocNullActsAsMalloc) {
  DDmallocAllocator A(smallHeapConfig());
  void *P = A.reallocate(nullptr, 0, 48);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(A.usableSize(P), 48u);
}

TEST(DDmallocTest, MetadataColoringDependsOnProcessId) {
  AllocatorOptions C0 = smallHeapConfig();
  C0.ProcessId = 0;
  AllocatorOptions C1 = smallHeapConfig();
  C1.ProcessId = 1;
  AllocatorOptions C9 = smallHeapConfig();
  C9.ProcessId = 9;
  DDmallocAllocator A0(C0), A1(C1), A9(C9);
  EXPECT_EQ(A0.metadataOffset(), 0u);
  EXPECT_NE(A1.metadataOffset(), A9.metadataOffset());
  // Offsets stay 64-byte aligned and inside half a segment.
  EXPECT_EQ(A1.metadataOffset() % 64, 0u);
  EXPECT_LT(A1.metadataOffset(), C1.SegmentSize / 2);

  AllocatorOptions NoColor = smallHeapConfig();
  NoColor.ProcessId = 5;
  NoColor.MetadataColoring = false;
  DDmallocAllocator Plain(NoColor);
  EXPECT_EQ(Plain.metadataOffset(), 0u);
}

TEST(DDmallocTest, MemoryConsumptionCountsSegmentsAndMetadata) {
  DDmallocAllocator A(smallHeapConfig());
  uint64_t Baseline = A.memoryConsumption();
  EXPECT_EQ(Baseline, A.metadataBytes());
  A.allocate(64);
  EXPECT_EQ(A.memoryConsumption(), Baseline + A.options().SegmentSize);
  A.allocate(64); // same segment: no growth
  EXPECT_EQ(A.memoryConsumption(), Baseline + A.options().SegmentSize);
  A.allocate(300); // different class: one more segment
  EXPECT_EQ(A.memoryConsumption(), Baseline + 2 * A.options().SegmentSize);
}

TEST(DDmallocTest, ExhaustionReturnsNull) {
  AllocatorOptions Config;
  Config.HeapReserveBytes = 1 * 1024 * 1024;
  DDmallocAllocator A(Config);
  std::vector<void *> Objects;
  for (;;) {
    void *P = A.allocate(16 * 1024);
    if (!P)
      break;
    Objects.push_back(P);
  }
  EXPECT_GT(Objects.size(), 10u);
  // freeAll recovers the space.
  A.freeAll();
  EXPECT_NE(A.allocate(16 * 1024), nullptr);
}

TEST(DDmallocTest, StatsTrackCallsAndBytes) {
  DDmallocAllocator A(smallHeapConfig());
  void *P = A.allocate(100);
  void *Q = A.allocate(200);
  A.deallocate(P);
  A.reallocate(Q, 200, 400);
  A.freeAll();
  const AllocatorStats &S = A.stats();
  EXPECT_EQ(S.MallocCalls, 3u); // 2 + 1 from realloc's grow path
  EXPECT_EQ(S.FreeCalls, 2u);   // 1 + 1 from realloc's grow path
  EXPECT_EQ(S.ReallocCalls, 1u);
  EXPECT_EQ(S.FreeAllCalls, 1u);
  EXPECT_EQ(S.BytesRequested, 100u + 200u + 400u);
  EXPECT_EQ(S.UsableBytesLive, 0u);
}

TEST(DDmallocTest, SmallerSegmentSizeWorks) {
  AllocatorOptions Config;
  Config.SegmentSize = 8 * 1024;
  Config.HeapReserveBytes = 8ull * 1024 * 1024;
  DDmallocAllocator A(Config);
  Rng R(2);
  std::vector<std::pair<void *, size_t>> Live;
  for (int I = 0; I < 2000; ++I) {
    size_t Size = R.nextInRange(1, 6000);
    void *P = A.allocate(Size);
    ASSERT_NE(P, nullptr);
    Live.push_back({P, Size});
    if (Live.size() > 100) {
      A.deallocate(Live.front().first);
      Live.erase(Live.begin());
    }
  }
  A.freeAll();
  EXPECT_EQ(A.segmentsInUse(), 0u);
}

TEST(DDmallocTest, RandomizedNoOverlapAndIntegrity) {
  DDmallocAllocator A(smallHeapConfig());
  Rng R(42);
  struct LiveObject {
    unsigned char *Ptr;
    size_t Size;
    unsigned char Pattern;
  };
  std::vector<LiveObject> Live;
  for (int Step = 0; Step < 20000; ++Step) {
    if (Live.empty() || R.nextBool(0.55)) {
      size_t Size = 1 + static_cast<size_t>(R.nextLogNormal(3.5, 1.2));
      if (Size > 60000)
        Size = 60000;
      auto *P = static_cast<unsigned char *>(A.allocate(Size));
      ASSERT_NE(P, nullptr);
      auto Pattern = static_cast<unsigned char>(R.next());
      std::memset(P, Pattern, Size);
      Live.push_back({P, Size, Pattern});
    } else {
      size_t Index = R.nextBelow(Live.size());
      LiveObject Object = Live[Index];
      for (size_t I = 0; I < Object.Size; I += 97)
        ASSERT_EQ(Object.Ptr[I], Object.Pattern) << "corruption at step " << Step;
      A.deallocate(Object.Ptr);
      Live[Index] = Live.back();
      Live.pop_back();
    }
  }
  // Everything still live must be intact.
  for (const LiveObject &Object : Live)
    for (size_t I = 0; I < Object.Size; I += 97)
      ASSERT_EQ(Object.Ptr[I], Object.Pattern);
}
