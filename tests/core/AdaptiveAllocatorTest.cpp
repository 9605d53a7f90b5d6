//===- tests/core/AdaptiveAllocatorTest.cpp - Placement policy tests -----===//

#include "core/AdaptiveAllocator.h"

#include "gtest/gtest.h"

#include <vector>

using namespace ddm;

namespace {

StreamWindowStats window(uint64_t Mallocs, uint64_t Frees,
                         uint64_t LifoFrees = 0,
                         uint64_t DominantClassMallocs = 0,
                         uint64_t MeanBytes = 1024) {
  StreamWindowStats W;
  W.Mallocs = Mallocs;
  W.Frees = Frees;
  W.LifoFrees = LifoFrees;
  W.DominantClassMallocs = DominantClassMallocs;
  W.BytesRequested = Mallocs * MeanBytes;
  return W;
}

TEST(ChoosePlacementTest, FollowsThePaperTaxonomy) {
  // No evidence: stay general-purpose.
  EXPECT_EQ(choosePlacement(window(0, 0)), AllocatorKind::Default);
  // Transaction-scoped (almost nothing freed): bulk reclamation wins.
  EXPECT_EQ(choosePlacement(window(100, 0)), AllocatorKind::Region);
  EXPECT_EQ(choosePlacement(window(100, 10, 5)), AllocatorKind::Region);
  // Strictly LIFO frees over a bulk phase: the obstack discipline.
  EXPECT_EQ(choosePlacement(window(100, 10, 10)), AllocatorKind::Obstack);
  // Churny with one dominant size class: slab.
  EXPECT_EQ(choosePlacement(window(100, 90, 0, 70)), AllocatorKind::Slab);
  // Churny small objects: slab even without a single dominant class.
  EXPECT_EQ(choosePlacement(window(100, 90, 0, 30, 64)), AllocatorKind::Slab);
  // Churny with large mixed sizes: the general-purpose heap.
  EXPECT_EQ(choosePlacement(window(100, 90, 0, 50)), AllocatorKind::Default);
  // freeRatio exactly at the bulk threshold counts as churny.
  EXPECT_EQ(choosePlacement(window(100, 25, 0, 0)), AllocatorKind::Default);
}

/// Mallocs per test window: exactly enough to be scored.
constexpr unsigned Window = AdaptiveAllocator::MinWindowMallocs;

TEST(AdaptiveAllocatorTest, StartsOnTheInitialKindAndDelegates) {
  AdaptiveAllocator A;
  EXPECT_STREQ(A.name(), "adaptive");
  EXPECT_EQ(A.currentStrategy(), AllocatorKind::Default);
  EXPECT_EQ(A.strategySwitches(), 0u);
  EXPECT_TRUE(A.supportsBulkFree());

  void *P = A.allocate(64);
  ASSERT_NE(P, nullptr);
  EXPECT_GE(A.usableSize(P), 64u);
  EXPECT_EQ(A.pendingWindow().Mallocs, 1u);
  EXPECT_EQ(A.pendingWindow().BytesRequested, 64u);
  A.deallocate(P);
  EXPECT_GT(A.memoryConsumption(), 0u);
}

TEST(AdaptiveAllocatorTest, TwoAgreeingWindowsSwitchTheStrategy) {
  AdaptiveAllocator A;

  // Two transaction-scoped windows (allocate, never free, bulk reclaim):
  // the first only records the recommendation, the second acts on it.
  for (unsigned Round = 0; Round < 2; ++Round) {
    for (unsigned I = 0; I < Window; ++I)
      ASSERT_NE(A.allocate(100 + I * 40), nullptr);
    A.freeAll();
  }
  EXPECT_EQ(A.currentStrategy(), AllocatorKind::Region);
  EXPECT_EQ(A.strategySwitches(), 1u);

  // Two churny single-size windows (free everything, per object): the
  // safe point is the deallocate that empties the live table.
  for (unsigned Round = 0; Round < 2; ++Round) {
    std::vector<void *> Ptrs;
    for (unsigned I = 0; I < Window; ++I) {
      void *P = A.allocate(64);
      ASSERT_NE(P, nullptr);
      Ptrs.push_back(P);
    }
    for (void *P : Ptrs)
      A.deallocate(P);
  }
  EXPECT_EQ(A.currentStrategy(), AllocatorKind::Slab);
  EXPECT_EQ(A.strategySwitches(), 2u);

  // The slab inner has no bulk free; adaptive keeps the promise by
  // sweeping the live table.
  for (unsigned I = 0; I < 4; ++I)
    ASSERT_NE(A.allocate(64), nullptr);
  A.freeAll();
  EXPECT_GE(A.usableSize(A.allocate(64)), 64u);
}

TEST(AdaptiveAllocatorTest, OneDissentingWindowResetsTheVote) {
  AdaptiveAllocator A;
  // Region-shaped window, then a churny one, then region again: no two
  // consecutive windows agree, so the strategy never moves.
  for (unsigned I = 0; I < Window; ++I)
    ASSERT_NE(A.allocate(100 + I * 40), nullptr);
  A.freeAll();
  {
    std::vector<void *> Ptrs;
    for (unsigned I = 0; I < Window; ++I)
      Ptrs.push_back(A.allocate(64));
    for (void *P : Ptrs)
      A.deallocate(P);
  }
  for (unsigned I = 0; I < Window; ++I)
    ASSERT_NE(A.allocate(100 + I * 40), nullptr);
  A.freeAll();
  EXPECT_EQ(A.currentStrategy(), AllocatorKind::Default);
  EXPECT_EQ(A.strategySwitches(), 0u);
}

TEST(AdaptiveAllocatorTest, ShortWindowsCarryForwardInsteadOfScoring) {
  AdaptiveAllocator A;
  for (unsigned Round = 0; Round < 3; ++Round) {
    for (unsigned I = 0; I < 8; ++I)
      ASSERT_NE(A.allocate(48), nullptr);
    A.freeAll();
  }
  // 24 mallocs < 64: too little evidence, the window keeps accumulating.
  EXPECT_EQ(A.pendingWindow().Mallocs, 24u);
  EXPECT_EQ(A.currentStrategy(), AllocatorKind::Default);
  EXPECT_EQ(A.strategySwitches(), 0u);
}

TEST(AdaptiveAllocatorTest, LifoFreesAreRecognizedAsObstack) {
  AdaptiveAllocator A;
  // Mostly-bulk windows whose few frees always hit the newest object —
  // the obstack grow/trim discipline.
  for (unsigned Round = 0; Round < 2; ++Round) {
    for (unsigned I = 0; I < 80; ++I) {
      void *P = A.allocate(96);
      ASSERT_NE(P, nullptr);
      if (I % 5 == 4)
        A.deallocate(P); // Frees the most recent allocation: LIFO.
    }
    A.freeAll();
  }
  EXPECT_EQ(A.currentStrategy(), AllocatorKind::Obstack);
  EXPECT_EQ(A.strategySwitches(), 1u);
}

TEST(AdaptiveAllocatorTest, NestedLifoFreesAllCountAsLifo) {
  // The LIFO detector tracks a stack of live allocations, not just the
  // single newest one: alloc a, alloc b; free b, free a is strictly
  // LIFO and both frees must count.
  AdaptiveAllocator A;
  void *P = A.allocate(96);
  void *Q = A.allocate(96);
  ASSERT_NE(P, nullptr);
  ASSERT_NE(Q, nullptr);
  A.deallocate(Q);
  EXPECT_EQ(A.pendingWindow().LifoFrees, 1u);
  A.deallocate(P); // P is the top again after Q popped.
  EXPECT_EQ(A.pendingWindow().LifoFrees, 2u);

  // A mid-stack free is not LIFO, and must not break detection for the
  // objects above it.
  void *X = A.allocate(96);
  void *Y = A.allocate(96);
  void *Z = A.allocate(96);
  A.deallocate(X); // Bottom of the stack: not LIFO.
  EXPECT_EQ(A.pendingWindow().LifoFrees, 2u);
  A.deallocate(Z);
  A.deallocate(Y); // Y surfaces once Z and the stale X entry are gone.
  EXPECT_EQ(A.pendingWindow().LifoFrees, 4u);
}

TEST(AdaptiveAllocatorTest, StackShapedTrimsReachObstack) {
  // A bulk phase that trims its newest objects in nested LIFO order —
  // the real obstack grow/trim shape — must score lifoRatio 1 and reach
  // the obstack recommendation (the single-pointer detector scored this
  // 0.5 and could never get there).
  AdaptiveAllocator A;
  for (unsigned Round = 0; Round < 2; ++Round) {
    std::vector<void *> Ptrs;
    for (unsigned I = 0; I < Window; ++I) {
      void *P = A.allocate(96);
      ASSERT_NE(P, nullptr);
      Ptrs.push_back(P);
    }
    A.deallocate(Ptrs[Window - 1]); // Trim the top two, nested.
    A.deallocate(Ptrs[Window - 2]);
    A.freeAll();
  }
  EXPECT_EQ(A.currentStrategy(), AllocatorKind::Obstack);
  EXPECT_EQ(A.strategySwitches(), 1u);
}

TEST(AdaptiveAllocatorTest, ReallocKeepsTheLiveTableCoherent) {
  AdaptiveAllocator A;
  void *P = A.allocate(32);
  ASSERT_NE(P, nullptr);
  void *Q = A.reallocate(P, 32, 128);
  ASSERT_NE(Q, nullptr);
  EXPECT_GE(A.usableSize(Q), 128u);
  EXPECT_EQ(A.pendingWindow().Reallocs, 1u);
  A.deallocate(Q);
  EXPECT_EQ(A.usableSize(Q), 0u);
}

} // namespace
