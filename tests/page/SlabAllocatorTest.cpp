//===- tests/page/SlabAllocatorTest.cpp - Slab lifecycle + magazines -----===//

#include "page/SlabAllocator.h"

#include "core/SizeClasses.h"
#include "support/FaultInjection.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

using namespace ddm;

namespace {

constexpr size_t TestHeapBytes = 8ull * 1024 * 1024;

AllocatorOptions smallHeap() {
  AllocatorOptions Options;
  Options.HeapReserveBytes = TestHeapBytes;
  return Options;
}

/// Arms a plan that fails every new slab, so a magazine refill stops at
/// the end of the slab it is draining.
void blockSlabGrowth() {
  FaultPlan Plan;
  std::string Error;
  ASSERT_TRUE(FaultPlan::parse("seed=1,slab_grow:every=1", Plan, Error))
      << Error;
  FaultInjector::instance().arm(Plan);
}

TEST(SlabAllocatorTest, RoundTripSmallObject) {
  SlabAllocator A(smallHeap());
  void *P = A.allocate(64);
  ASSERT_NE(P, nullptr);
  EXPECT_TRUE(A.owns(P));
  std::memset(P, 0x7E, 64);
  EXPECT_EQ(A.usableSize(P), 64u);
  A.deallocate(P);
  EXPECT_EQ(A.stats().MallocCalls, 1u);
  EXPECT_EQ(A.stats().FreeCalls, 1u);
}

// The full slab lifecycle: a grown slab is partial, a drained slab is full
// and off the lists, a refilled slab is empty — one empty is kept as the
// class reserve, the rest reap back to the buddy, and shrink() reaps the
// reserve too.
TEST(SlabAllocatorTest, LifecyclePartialFullEmptyReap) {
  auto Central = createSlabCentral(TestHeapBytes);
  SizeClassMap Map(8 * 1024);
  const unsigned Class = Map.classFor(64);
  const uint32_t Cap = Central->SlabCapacity[Class];
  ASSERT_GE(Cap, 8u);

  {
    AllocatorOptions Options = smallHeap();
    Options.Shared = Central;
    SlabAllocator A(Options);
    EXPECT_EQ(A.partialSlabCount(Class), 0u);
    EXPECT_FALSE(A.hasEmptyReserve(Class));

    std::vector<void *> Objects;
    Objects.push_back(A.allocate(64));
    ASSERT_NE(Objects.back(), nullptr);
    EXPECT_EQ(A.partialSlabCount(Class), 1u); // Fresh slab: partial.

    // Drain the first slab completely: it leaves the partial list. A
    // refill takes RefillBatch objects, which does not divide Cap, so
    // growth is blocked meanwhile: the last refill stops at the slab's
    // end and the magazine runs dry exactly at the Cap-th allocation.
    blockSlabGrowth();
    while (Objects.size() < Cap) {
      Objects.push_back(A.allocate(64));
      ASSERT_NE(Objects.back(), nullptr);
    }
    FaultInjector::instance().disarm();
    EXPECT_EQ(A.magazineCount(Class), 0u);
    EXPECT_EQ(A.partialSlabCount(Class), 0u);
    EXPECT_EQ(Central->SlabsCreated, 1u);

    // Two more slabs' worth keeps exactly one partial at the end.
    while (Objects.size() < size_t(2) * Cap + 1) {
      Objects.push_back(A.allocate(64));
      ASSERT_NE(Objects.back(), nullptr);
    }
    EXPECT_EQ(Central->SlabsCreated, 3u);
    EXPECT_EQ(A.partialSlabCount(Class), 1u);

    for (void *P : Objects)
      A.deallocate(P);
    // The allocator's destructor flushes its magazine stock to the
    // central, emptying every slab.
  }

  // One empty slab stays as the class reserve; the other two were reaped.
  AllocatorOptions Shared;
  Shared.Shared = Central;
  SlabAllocator B(Shared);
  EXPECT_TRUE(B.hasEmptyReserve(Class));
  EXPECT_EQ(B.partialSlabCount(Class), 0u);
  EXPECT_EQ(Central->SlabsReaped, 2u);
  const uint64_t SlabPages = uint64_t(1) << Central->SlabOrder[Class];
  EXPECT_EQ(B.pageStats().PagesLive, SlabPages);

  // shrink() reaps the reserve: the whole heap is free again.
  EXPECT_EQ(B.shrink(), SlabPages);
  EXPECT_FALSE(B.hasEmptyReserve(Class));
  PageBackendStats S = B.pageStats();
  EXPECT_EQ(S.PagesLive, 0u);
  EXPECT_EQ(S.FreePages, uint64_t(Central->NumPages));
  EXPECT_EQ(S.PagesAcquired, S.PagesReclaimed);
}

TEST(SlabAllocatorTest, MagazinesBatchCentralTraffic) {
  SlabAllocator A(smallHeap());
  SizeClassMap Map(8 * 1024);
  const unsigned Class = Map.classFor(128);

  void *P1 = A.allocate(128);
  ASSERT_NE(P1, nullptr);
  // One refill pulled a whole batch; the allocation popped one object.
  EXPECT_EQ(A.magazineCount(Class), 15u);
  void *P2 = A.allocate(128);
  ASSERT_NE(P2, nullptr);
  EXPECT_EQ(A.magazineCount(Class), 14u);
  A.deallocate(P2);
  A.deallocate(P1);
  EXPECT_EQ(A.magazineCount(Class), 16u);
  EXPECT_EQ(A.central()->SlabsCreated, 1u);
}

TEST(SlabAllocatorTest, LargeObjectsTakeWholeBuddyBlocks) {
  SlabAllocator A(smallHeap());
  const uint64_t LiveBefore = A.pageStats().PagesLive;

  void *P = A.allocate(100 * 1024);
  ASSERT_NE(P, nullptr);
  EXPECT_TRUE(A.owns(P));
  std::memset(P, 0x11, 100 * 1024);
  // 100 KB rounds to the next power-of-two block: 32 pages (128 KB).
  EXPECT_EQ(A.usableSize(P), 128u * 1024);
  EXPECT_EQ(A.pageStats().PagesLive, LiveBefore + 32);

  A.deallocate(P);
  PageBackendStats S = A.pageStats();
  EXPECT_EQ(S.PagesLive, LiveBefore);
  EXPECT_GE(S.PagesReclaimed, 32u);
}

TEST(SlabAllocatorTest, ReallocatePreservesContentAndReusesInPlace) {
  SlabAllocator A(smallHeap());
  void *P = A.allocate(40);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(A.usableSize(P), 40u);
  std::memset(P, 0x3D, 40);

  // Shrinking within the same size class keeps the object in place.
  void *Same = A.reallocate(P, 40, 38);
  EXPECT_EQ(Same, P);

  void *Grown = A.reallocate(Same, 38, 100);
  ASSERT_NE(Grown, nullptr);
  EXPECT_NE(Grown, P);
  for (size_t I = 0; I < 38; ++I)
    EXPECT_EQ(reinterpret_cast<unsigned char *>(Grown)[I], 0x3D) << I;
  A.deallocate(Grown);
}

TEST(SlabAllocatorTest, ExhaustionReturnsNullptrAndRecovers) {
  AllocatorOptions Options;
  Options.HeapReserveBytes = 256 * 1024; // 64 pages.
  SlabAllocator A(Options);

  std::vector<void *> Objects;
  for (;;) {
    void *P = A.allocate(6000);
    if (!P)
      break;
    Objects.push_back(P);
  }
  EXPECT_GT(Objects.size(), 4u);
  // Large requests fail cleanly too.
  EXPECT_EQ(A.allocate(1024 * 1024), nullptr);

  for (void *P : Objects)
    A.deallocate(P);
  void *Again = A.allocate(6000);
  EXPECT_NE(Again, nullptr);
  A.deallocate(Again);
}

TEST(SlabAllocatorTest, SlabGrowFaultSiteFires) {
  SlabAllocator A(smallHeap());
  FaultPlan Plan;
  std::string Error;
  ASSERT_TRUE(FaultPlan::parse("seed=1,slab_grow:every=1", Plan, Error))
      << Error;
  FaultInjector::instance().arm(Plan);
  EXPECT_EQ(A.allocate(64), nullptr);         // New slab blocked.
  EXPECT_EQ(A.allocate(100 * 1024), nullptr); // Large run blocked.
  EXPECT_GE(FaultInjector::instance().counters(FaultSite::SlabGrow).Fired, 2u);
  FaultInjector::instance().disarm();
  void *P = A.allocate(64);
  EXPECT_NE(P, nullptr);
  A.deallocate(P);
}

TEST(SlabAllocatorTest, PrivateCentralDrawsFromAPageBackend) {
  auto Backend = createBuddyBackend(32ull * 1024 * 1024);
  const uint64_t HeapPages = TestHeapBytes / 4096;
  {
    AllocatorOptions Options = smallHeap();
    Options.Backend = Backend;
    SlabAllocator A(Options);
    void *P = A.allocate(64);
    ASSERT_NE(P, nullptr);
    EXPECT_TRUE(Backend->contains(P));
    A.deallocate(P);
    EXPECT_EQ(Backend->stats().PagesLive, HeapPages);
  }
  // A destroyed allocator is a restarted process: the whole heap span
  // returns to the page economy.
  PageBackendStats S = Backend->stats();
  EXPECT_EQ(S.PagesLive, 0u);
  EXPECT_EQ(S.PagesReclaimed, HeapPages);
}

// Four threads, each with its own magazines over one shared central,
// allocating/stamping/verifying/freeing concurrently. Any lost or doubly
// handed-out object shows up as a stamp mismatch.
TEST(SlabAllocatorTest, SharedCentralConcurrentSoak) {
  auto Central = createSlabCentral(64ull * 1024 * 1024);
  constexpr unsigned Threads = 4;
  constexpr unsigned Rounds = 4000;
  std::atomic<bool> Corrupted{false};

  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      AllocatorOptions Options;
      Options.Shared = Central;
      SlabAllocator A(Options);
      const size_t Sizes[] = {16, 64, 256, 1024, 6000};
      std::vector<std::pair<void *, uint64_t>> Held;
      for (unsigned R = 0; R < Rounds; ++R) {
        size_t Size = Sizes[R % 5];
        void *P = A.allocate(Size);
        if (!P)
          continue;
        uint64_t Stamp = (uint64_t(T) << 32) | R;
        std::memcpy(P, &Stamp, sizeof(Stamp));
        Held.emplace_back(P, Stamp);
        if (Held.size() >= 32 || R + 1 == Rounds) {
          for (auto &[Ptr, Expected] : Held) {
            uint64_t Got;
            std::memcpy(&Got, Ptr, sizeof(Got));
            if (Got != Expected)
              Corrupted = true;
            A.deallocate(Ptr);
          }
          Held.clear();
        }
      }
      for (auto &[Ptr, Expected] : Held) {
        (void)Expected;
        A.deallocate(Ptr);
      }
    });
  for (std::thread &W : Workers)
    W.join();

  EXPECT_FALSE(Corrupted.load());
  // Every magazine flushed on destruction: nothing stays live except the
  // per-class empty reserves (five size classes touched, slabs of at most
  // 2^MaxSlabOrder pages each).
  AllocatorOptions Options;
  Options.Shared = Central;
  SlabAllocator Probe(Options);
  PageBackendStats S = Probe.pageStats();
  EXPECT_EQ(S.PagesAcquired - S.PagesReclaimed, S.PagesLive);
  EXPECT_LE(S.PagesLive, 5u * (1u << SlabCentral::MaxSlabOrder));
}

TEST(SlabAllocatorDeathTest, FreeAllAborts) {
  SlabAllocator A(smallHeap());
  EXPECT_DEATH(A.freeAll(), "no bulk free");
}

} // namespace
