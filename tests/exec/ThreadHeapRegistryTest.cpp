//===- tests/exec/ThreadHeapRegistryTest.cpp - Thread-safe heap soak -----===//
///
/// \file
/// The allocator zoo's threading contract, exercised directly: for every
/// kind, four threads hammer their per-thread heaps (built through
/// ThreadHeapRegistry, so DDmalloc shares the segment pool and
/// tcmalloc/hoard share a central) with allocate/free/freeAll churn, then
/// the test checks per-heap counter integrity, zero live bytes after
/// cleanup, and — for the pooled DDmalloc — that heap teardown returns
/// every segment to the pool.
///
//===----------------------------------------------------------------------===//

#include "exec/ThreadHeapRegistry.h"
#include "core/HoardModel.h"
#include "core/SegmentPool.h"
#include "core/TCMallocModel.h"
#include "page/SlabAllocator.h"
#include "support/Random.h"

#include "gtest/gtest.h"

#include <cstring>
#include <thread>
#include <vector>

using namespace ddm;

namespace {

ThreadHeapRegistry::Config configFor(AllocatorKind Kind, unsigned Threads) {
  ThreadHeapRegistry::Config C;
  C.Kind = Kind;
  C.Threads = Threads;
  C.Options.HeapReserveBytes = 64ull * 1024 * 1024;
  C.Options.RegionChunkBytes = 64ull * 1024 * 1024;
  return C;
}

/// One thread's churn: interleaved allocs, per-object frees (when
/// supported), occasional large objects, and periodic bulk cleanup.
void churn(TxAllocator &A, uint64_t Seed) {
  Rng R(Seed);
  std::vector<std::pair<void *, size_t>> Live;
  for (int Round = 0; Round < 40; ++Round) {
    for (int I = 0; I < 200; ++I) {
      size_t Size = R.nextBool(0.01) ? 20 * 1024 + R.nextBelow(60 * 1024)
                                     : 8 + R.nextBelow(256);
      void *P = A.allocate(Size);
      ASSERT_NE(P, nullptr);
      std::memset(P, 0xAB, Size);
      Live.emplace_back(P, Size);
      if (A.supportsPerObjectFree() && R.nextBool(0.5) && !Live.empty()) {
        size_t Victim = R.nextBelow(Live.size());
        A.deallocate(Live[Victim].first);
        Live[Victim] = Live.back();
        Live.pop_back();
      }
    }
    if (A.supportsBulkFree()) {
      A.freeAll();
      Live.clear();
    } else if (Round % 4 == 3) {
      for (auto &[P, Size] : Live)
        A.deallocate(P);
      Live.clear();
    }
  }
  for (auto &[P, Size] : Live)
    if (A.supportsPerObjectFree())
      A.deallocate(P);
    else
      (void)P;
  if (A.supportsBulkFree())
    A.freeAll();
}

class ThreadHeapSoak : public ::testing::TestWithParam<AllocatorKind> {};

TEST_P(ThreadHeapSoak, ConcurrentChurnKeepsCountersConsistent) {
  constexpr unsigned Threads = 4;
  AllocatorKind Kind = GetParam();
  ThreadHeapRegistry Registry(configFor(Kind, Threads));

  std::vector<std::unique_ptr<TxAllocator>> Heaps(Threads);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Heaps[T] = Registry.createHeap(T);
      churn(*Heaps[T], 0x5eed + T);
    });
  for (std::thread &W : Workers)
    W.join();

  for (unsigned T = 0; T < Threads; ++T) {
    ASSERT_NE(Heaps[T], nullptr);
    const AllocatorStats &S = Heaps[T]->stats();
    EXPECT_EQ(S.UsableBytesLive, 0u)
        << allocatorKindName(Kind) << " thread " << T;
    EXPECT_GT(S.MallocCalls, 0u);
    EXPECT_LE(S.FreeCalls, S.MallocCalls);
    EXPECT_GE(S.PeakUsableBytesLive, 0u);
  }

  if (Kind == AllocatorKind::DDmalloc) {
    auto *Pool = dynamic_cast<SharedSegmentPool *>(Registry.sharedHeap());
    ASSERT_NE(Pool, nullptr);
    // freeAll() already returned everything the churn acquired.
    EXPECT_EQ(Pool->segmentsOutstanding(), 0u);
    // New allocations re-acquire segments; heap teardown returns them.
    ASSERT_NE(Heaps[0]->allocate(64), nullptr);
    EXPECT_GT(Pool->segmentsOutstanding(), 0u);
    Heaps.clear();
    EXPECT_EQ(Pool->segmentsOutstanding(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ThreadHeapSoak, ::testing::ValuesIn(allAllocatorKinds()),
    [](const ::testing::TestParamInfo<AllocatorKind> &Info) {
      return std::string(allocatorKindName(Info.param));
    });

TEST(ThreadHeapRegistryTest, SharingModelPerKind) {
  EXPECT_STREQ(
      ThreadHeapRegistry(configFor(AllocatorKind::DDmalloc, 2)).sharingModel(),
      "sharded-pool");
  EXPECT_STREQ(
      ThreadHeapRegistry(configFor(AllocatorKind::TCMalloc, 2)).sharingModel(),
      "shared-central");
  EXPECT_STREQ(
      ThreadHeapRegistry(configFor(AllocatorKind::Hoard, 2)).sharingModel(),
      "shared-central");
  EXPECT_STREQ(
      ThreadHeapRegistry(configFor(AllocatorKind::Slab, 2)).sharingModel(),
      "shared-central");
  EXPECT_STREQ(
      ThreadHeapRegistry(configFor(AllocatorKind::Region, 2)).sharingModel(),
      "private-heap");
}

TEST(ThreadHeapRegistryTest, OptionsCarryShardAndBackends) {
  ThreadHeapRegistry Registry(configFor(AllocatorKind::DDmalloc, 3));
  AllocatorOptions O2 = Registry.optionsFor(2);
  EXPECT_EQ(O2.ShardId, 2u);
  EXPECT_EQ(O2.ProcessId, 2u);

  // Every shared kind hands all its threads the one handle it built, of
  // its own central type; private kinds hand out none.
  for (AllocatorKind Kind : allAllocatorKinds()) {
    ThreadHeapRegistry Reg(configFor(Kind, 2));
    std::shared_ptr<SharedHeap> Shared = Reg.optionsFor(0).Shared;
    EXPECT_EQ(Shared.get(), Reg.sharedHeap()) << allocatorKindName(Kind);
    EXPECT_EQ(Shared, Reg.optionsFor(1).Shared) << allocatorKindName(Kind);
    EXPECT_EQ(Shared != nullptr, allocatorTraits(Kind).BuildShared != nullptr)
        << allocatorKindName(Kind);
  }
  auto SharedOf = [](AllocatorKind Kind) {
    return ThreadHeapRegistry(configFor(Kind, 2)).optionsFor(0).Shared;
  };
  EXPECT_NE(std::dynamic_pointer_cast<SharedSegmentPool>(
                SharedOf(AllocatorKind::DDmalloc)),
            nullptr);
  EXPECT_NE(std::dynamic_pointer_cast<TCMallocCentral>(
                SharedOf(AllocatorKind::TCMalloc)),
            nullptr);
  EXPECT_NE(
      std::dynamic_pointer_cast<HoardCentral>(SharedOf(AllocatorKind::Hoard)),
      nullptr);
  EXPECT_NE(
      std::dynamic_pointer_cast<SlabCentral>(SharedOf(AllocatorKind::Slab)),
      nullptr);
  EXPECT_EQ(SharedOf(AllocatorKind::Region), nullptr);
}

/// Shared-central teardown donates reusable memory: a tcmalloc heap's
/// death flushes its cache to the central lists, where a sibling can
/// allocate from it.
TEST(ThreadHeapRegistryTest, TCMallocTeardownDonatesToCentral) {
  ThreadHeapRegistry Registry(configFor(AllocatorKind::TCMalloc, 2));
  std::unique_ptr<TxAllocator> A = Registry.createHeap(0);
  std::unique_ptr<TxAllocator> B = Registry.createHeap(1);
  void *P = A->allocate(64);
  ASSERT_NE(P, nullptr);
  A->deallocate(P); // Now cached in A's thread cache.
  A.reset();        // Dtor flushes the cache to the shared central.
  void *Q = B->allocate(64);
  EXPECT_NE(Q, nullptr);
  B->deallocate(Q);
}

/// Same contract for the slab allocator: a dying magazine set returns its
/// stock to the shared central's slabs.
TEST(ThreadHeapRegistryTest, SlabTeardownFlushesMagazinesToCentral) {
  ThreadHeapRegistry Registry(configFor(AllocatorKind::Slab, 2));
  std::unique_ptr<TxAllocator> A = Registry.createHeap(0);
  std::unique_ptr<TxAllocator> B = Registry.createHeap(1);
  void *P = A->allocate(64);
  ASSERT_NE(P, nullptr);
  A->deallocate(P); // Parked in A's magazine.
  A.reset();        // Dtor returns the magazine stock to the central.
  void *Q = B->allocate(64);
  EXPECT_NE(Q, nullptr);
  B->deallocate(Q);
  EXPECT_EQ(B->stats().UsableBytesLive, 0u);
}

} // namespace
