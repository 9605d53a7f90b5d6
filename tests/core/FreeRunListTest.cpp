//===- tests/core/FreeRunListTest.cpp - Shared free-run list tests --------===//
///
/// \file
/// The first-fit free-run list behind TCmalloc's page heap, Hoard's large
/// runs and the segment pool's multi-segment runs: first fit, split,
/// coalescing on both sides, frontier exhaustion, the frontier-only take,
/// the scan and merge counts the callers charge from, and the structural
/// walk after every step of a randomized soak.
///
//===----------------------------------------------------------------------===//

#include "core/FreeRunList.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

using namespace ddm;

namespace {

/// Takes runs of 2, 1, 4, 1, 3, 1 units (0-1, 2, 3-6, 7, 8-10, 11) and
/// frees the 2-, 4- and 3-unit ones, leaving free runs {0:2, 3:4, 8:3}
/// separated by the three one-unit guards.
FreeRunList threeHoles() {
  FreeRunList L(100);
  for (size_t Length : {2, 1, 4, 1, 3, 1})
    L.take(Length);
  EXPECT_EQ(L.release(0, 2), 0u);
  EXPECT_EQ(L.release(3, 4), 0u);
  EXPECT_EQ(L.release(8, 3), 0u);
  EXPECT_EQ(L.runCount(), 3u);
  EXPECT_EQ(L.frontier(), 12u);
  return L;
}

TEST(FreeRunListTest, FreshListTakesFromTheFrontier) {
  FreeRunList L(10);
  FreeRunList::Take T = L.take(4);
  EXPECT_EQ(T.First, 0u);
  EXPECT_EQ(T.Length, 4u);
  EXPECT_EQ(T.Scanned, 0u);
  EXPECT_FALSE(T.Split);
  EXPECT_EQ(L.take(3).First, 4u);
  EXPECT_EQ(L.frontier(), 7u);
  EXPECT_EQ(L.runCount(), 0u);
  EXPECT_TRUE(L.verify());
}

TEST(FreeRunListTest, FirstFitSplitsTheLowestRunThatFits) {
  FreeRunList L = threeHoles();
  FreeRunList::Take T = L.take(3);
  EXPECT_EQ(T.First, 3u); // The 2-unit run at 0 is too short.
  EXPECT_EQ(T.Length, 3u);
  EXPECT_EQ(T.Scanned, 2u);
  EXPECT_TRUE(T.Split);
  EXPECT_EQ(L.runCount(), 3u); // {0:2, 6:1, 8:3}
  EXPECT_EQ(L.frontier(), 12u);
  EXPECT_TRUE(L.verify());
  // The split-off remainder is the first one-unit fit after run 0.
  FreeRunList::Take Rest = L.take(1);
  EXPECT_EQ(Rest.First, 0u);
  EXPECT_TRUE(Rest.Split);
  EXPECT_EQ(L.take(1).First, 1u);
  EXPECT_EQ(L.take(1).First, 6u);
}

TEST(FreeRunListTest, ExactFitDoesNotSplit) {
  FreeRunList L = threeHoles();
  FreeRunList::Take T = L.take(2);
  EXPECT_EQ(T.First, 0u);
  EXPECT_EQ(T.Scanned, 1u);
  EXPECT_FALSE(T.Split);
  EXPECT_EQ(L.runCount(), 2u);
}

TEST(FreeRunListTest, NoFitFallsBackToTheFrontierAfterScanningEveryRun) {
  FreeRunList L = threeHoles();
  FreeRunList::Take T = L.take(5);
  EXPECT_EQ(T.First, 12u);
  EXPECT_EQ(T.Scanned, 3u);
  EXPECT_FALSE(T.Split);
  EXPECT_EQ(L.frontier(), 17u);
  EXPECT_EQ(L.runCount(), 3u);
}

TEST(FreeRunListTest, ReleaseCoalescesOnBothSides) {
  FreeRunList L(100);
  for (size_t Length : {2, 3, 4, 1})
    L.take(Length); // 0-1, 2-4, 5-8, guard 9.
  EXPECT_EQ(L.release(0, 2), 0u);
  EXPECT_EQ(L.release(5, 4), 0u);
  EXPECT_EQ(L.runCount(), 2u);
  // The middle run touches both free neighbours: two merges, one run.
  EXPECT_EQ(L.release(2, 3), 2u);
  EXPECT_EQ(L.runCount(), 1u);
  EXPECT_TRUE(L.verify());
  FreeRunList::Take T = L.take(9);
  EXPECT_EQ(T.First, 0u);
  EXPECT_FALSE(T.Split);
  EXPECT_EQ(L.runCount(), 0u);
}

TEST(FreeRunListTest, ReleaseCoalescesWithOneSide) {
  FreeRunList L(100);
  for (size_t Length : {2, 3, 1, 4, 2, 1})
    L.take(Length); // 0-1, 2-4, guard 5, 6-9, 10-11, guard 12.
  L.release(0, 2);
  EXPECT_EQ(L.release(2, 3), 1u); // Merges with the run before it.
  L.release(10, 2);
  EXPECT_EQ(L.release(6, 4), 1u); // Merges with the run after it.
  EXPECT_EQ(L.runCount(), 2u);
  EXPECT_EQ(L.take(5).First, 0u);
  EXPECT_EQ(L.take(6).First, 6u);
  EXPECT_TRUE(L.verify());
}

TEST(FreeRunListTest, ExhaustedFrontierTakesNothing) {
  FreeRunList L(10);
  EXPECT_EQ(L.take(8).First, 0u);
  FreeRunList::Take T = L.take(3);
  EXPECT_EQ(T.First, FreeRunList::NoRun);
  EXPECT_EQ(T.Length, 0u);
  EXPECT_EQ(L.frontier(), 8u);
  EXPECT_EQ(L.take(2).First, 8u);
  EXPECT_EQ(L.take(1).First, FreeRunList::NoRun);
  EXPECT_EQ(L.takeFresh(1).Length, 0u);
  // A failed search still reports the runs it scanned.
  L.release(0, 2);
  L.release(4, 1);
  FreeRunList::Take Miss = L.take(3);
  EXPECT_EQ(Miss.First, FreeRunList::NoRun);
  EXPECT_EQ(Miss.Scanned, 2u);
}

TEST(FreeRunListTest, TakeFreshNeverReusesAFreeRun) {
  FreeRunList L(10);
  L.take(4);
  L.release(0, 4);
  FreeRunList::Take T = L.takeFresh(1);
  EXPECT_EQ(T.First, 4u);
  EXPECT_EQ(T.Length, 1u);
  EXPECT_EQ(T.Scanned, 0u);
  EXPECT_EQ(L.runCount(), 1u);
  // Near the end it takes what is left.
  FreeRunList::Take Tail = L.takeFresh(8);
  EXPECT_EQ(Tail.First, 5u);
  EXPECT_EQ(Tail.Length, 5u);
  EXPECT_EQ(L.frontier(), 10u);
}

TEST(FreeRunListTest, TakeLowestSplitsTheLowestRun) {
  FreeRunList L = threeHoles();
  FreeRunList::Take T = L.takeLowest(1);
  EXPECT_EQ(T.First, 0u);
  EXPECT_EQ(T.Length, 1u);
  EXPECT_TRUE(T.Split);
  FreeRunList::Take Rest = L.takeLowest(10);
  EXPECT_EQ(Rest.First, 1u);
  EXPECT_EQ(Rest.Length, 1u);
  EXPECT_FALSE(Rest.Split);
  EXPECT_EQ(L.takeLowest(10).First, 3u);
  EXPECT_EQ(L.takeLowest(10).Length, 3u);
  EXPECT_EQ(L.takeLowest(10).Length, 0u); // No run left.
  EXPECT_EQ(L.frontier(), 12u);
}

// Random takes (all three kinds) and releases against a unit bitmap: no
// two live runs overlap, the structural walk holds after every step, and
// releasing everything leaves one run covering [0, frontier).
TEST(FreeRunListTest, RandomChurnKeepsTheListSoundAndFullyCoalesced) {
  for (uint64_t Seed : {1, 2, 3}) {
    FreeRunList L(512);
    Rng R(Seed);
    std::vector<std::pair<size_t, size_t>> Live;
    std::vector<bool> Used(512, false);
    for (unsigned Step = 0; Step < 4000; ++Step) {
      if (!Live.empty() && R.nextBelow(100) < 45) {
        size_t Victim = R.nextBelow(Live.size());
        auto [First, Length] = Live[Victim];
        Live[Victim] = Live.back();
        Live.pop_back();
        for (size_t I = 0; I < Length; ++I)
          Used[First + I] = false;
        L.release(First, Length);
      } else {
        size_t Length = 1 + R.nextBelow(8);
        unsigned Kind = static_cast<unsigned>(R.nextBelow(3));
        FreeRunList::Take T = Kind == 0   ? L.take(Length)
                              : Kind == 1 ? L.takeFresh(Length)
                                          : L.takeLowest(Length);
        if (T.Length == 0)
          continue;
        ASSERT_LE(T.Length, Length);
        ASSERT_LE(T.First + T.Length, L.frontier());
        for (size_t I = 0; I < T.Length; ++I) {
          ASSERT_FALSE(Used[T.First + I]) << "unit handed out twice";
          Used[T.First + I] = true;
        }
        Live.emplace_back(T.First, T.Length);
      }
      ASSERT_TRUE(L.verify()) << "seed " << Seed << " step " << Step;
    }
    for (auto [First, Length] : Live)
      L.release(First, Length);
    EXPECT_TRUE(L.verify());
    if (L.frontier() > 0) {
      EXPECT_EQ(L.runCount(), 1u);
      EXPECT_EQ(L.take(L.frontier()).First, 0u);
    }
  }
}

} // namespace
