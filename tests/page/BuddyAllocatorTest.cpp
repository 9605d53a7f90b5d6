//===- tests/page/BuddyAllocatorTest.cpp - Buddy invariants --------------===//

#include "page/BuddyAllocator.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

using namespace ddm;

namespace {

TEST(BuddyAllocatorTest, SeedsAPowerOfTwoSpanAsOneBlock) {
  BuddyAllocator B(1024, 10);
  EXPECT_EQ(B.numPages(), 1024u);
  EXPECT_EQ(B.maxOrder(), 10u);
  EXPECT_EQ(B.freePageCount(), 1024u);
  EXPECT_EQ(B.largestFreeBlockPages(), 1024u);
  EXPECT_EQ(B.freeBlocksAt(10), 1u);
  EXPECT_TRUE(B.verify());
}

TEST(BuddyAllocatorTest, SplitCoalesceRoundTrip) {
  BuddyAllocator B(1024, 10);
  uint32_t Page = B.allocPages(0);
  ASSERT_NE(Page, BuddyAllocator::NoPage);
  // Carving one page out of a 1024-page block splits at every order below
  // the top, leaving one free half per order.
  EXPECT_EQ(B.totalSplits(), 10u);
  for (unsigned Order = 0; Order < 10; ++Order)
    EXPECT_EQ(B.freeBlocksAt(Order), 1u) << "order " << Order;
  EXPECT_EQ(B.freeBlocksAt(10), 0u);
  EXPECT_EQ(B.freePageCount(), 1023u);
  EXPECT_EQ(B.largestFreeBlockPages(), 512u);
  EXPECT_TRUE(B.verify());

  // The free merges all the way back up: the span is whole again.
  B.freePages(Page, 0);
  EXPECT_EQ(B.totalCoalesces(), 10u);
  EXPECT_EQ(B.freePageCount(), 1024u);
  EXPECT_EQ(B.largestFreeBlockPages(), 1024u);
  EXPECT_EQ(B.freeBlocksAt(10), 1u);
  for (unsigned Order = 0; Order < 10; ++Order)
    EXPECT_EQ(B.freeBlocksAt(Order), 0u) << "order " << Order;
  EXPECT_TRUE(B.verify());
}

TEST(BuddyAllocatorTest, MixedOrderBlocksNeverOverlapAndStayAligned) {
  BuddyAllocator B(1024, 10);
  std::vector<std::pair<uint32_t, unsigned>> Held;
  const unsigned Orders[] = {0, 3, 1, 5, 2, 0, 4, 3, 1, 6, 0, 2};
  for (unsigned Order : Orders) {
    uint32_t Page = B.allocPages(Order);
    ASSERT_NE(Page, BuddyAllocator::NoPage);
    EXPECT_EQ(Page % (1u << Order), 0u) << "block misaligned for its order";
    EXPECT_EQ(B.allocatedOrderAt(Page), Order);
    Held.emplace_back(Page, Order);
  }
  std::vector<std::pair<uint32_t, uint32_t>> Ranges;
  for (auto [Page, Order] : Held)
    Ranges.emplace_back(Page, Page + (1u << Order));
  std::sort(Ranges.begin(), Ranges.end());
  for (size_t I = 1; I < Ranges.size(); ++I)
    EXPECT_LE(Ranges[I - 1].second, Ranges[I].first)
        << "blocks " << I - 1 << " and " << I << " overlap";
  EXPECT_TRUE(B.verify());

  // Free in a scrambled order; everything must coalesce back to one block.
  std::swap(Held[0], Held[7]);
  std::swap(Held[2], Held[9]);
  for (auto [Page, Order] : Held)
    B.freePages(Page, Order);
  EXPECT_EQ(B.freePageCount(), 1024u);
  EXPECT_EQ(B.largestFreeBlockPages(), 1024u);
  EXPECT_TRUE(B.verify());
}

TEST(BuddyAllocatorTest, OrderAccountingIsExact) {
  BuddyAllocator B(256, 8);
  uint32_t A0 = B.allocPages(0);
  uint32_t A1 = B.allocPages(0);
  uint32_t A2 = B.allocPages(3);
  EXPECT_EQ(B.orderStats(0).Allocs, 2u);
  EXPECT_EQ(B.orderStats(3).Allocs, 1u);
  EXPECT_EQ(B.orderStats(8).Allocs, 0u);
  B.freePages(A0, 0);
  B.freePages(A1, 0);
  B.freePages(A2, 3);
  EXPECT_EQ(B.orderStats(0).Frees, 2u);
  EXPECT_EQ(B.orderStats(3).Frees, 1u);
  // Every split must have been undone by exactly one coalesce.
  EXPECT_EQ(B.totalSplits(), B.totalCoalesces());
  EXPECT_EQ(B.freePageCount(), 256u);
  EXPECT_TRUE(B.verify());
}

TEST(BuddyAllocatorTest, OrderForRoundsUpToThePowerOfTwo) {
  EXPECT_EQ(BuddyAllocator::orderFor(1), 0u);
  EXPECT_EQ(BuddyAllocator::orderFor(2), 1u);
  EXPECT_EQ(BuddyAllocator::orderFor(3), 2u);
  EXPECT_EQ(BuddyAllocator::orderFor(4), 2u);
  EXPECT_EQ(BuddyAllocator::orderFor(5), 3u);
  EXPECT_EQ(BuddyAllocator::orderFor(1024), 10u);
  EXPECT_EQ(BuddyAllocator::orderFor(1025), 11u);
}

TEST(BuddyAllocatorTest, NonPowerOfTwoSpanSeedsMaximalAlignedBlocks) {
  // 1000 = 512 + 256 + 128 + 64 + 32 + 8: six seed blocks, none larger
  // than 512 pages, and no coalescing past the seed boundaries.
  BuddyAllocator B(1000, 10);
  EXPECT_EQ(B.freePageCount(), 1000u);
  EXPECT_EQ(B.largestFreeBlockPages(), 512u);
  EXPECT_EQ(B.freeBlocksAt(9), 1u);
  EXPECT_EQ(B.freeBlocksAt(8), 1u);
  EXPECT_EQ(B.freeBlocksAt(3), 1u);
  EXPECT_TRUE(B.verify());

  // Drain the whole span one page at a time, then refill it.
  std::vector<uint32_t> Pages;
  for (uint32_t Page = B.allocPages(0); Page != BuddyAllocator::NoPage;
       Page = B.allocPages(0))
    Pages.push_back(Page);
  EXPECT_EQ(Pages.size(), 1000u);
  EXPECT_EQ(B.freePageCount(), 0u);
  EXPECT_EQ(B.largestFreeBlockPages(), 0u);
  EXPECT_TRUE(B.verify());
  for (uint32_t Page : Pages)
    B.freePages(Page, 0);
  EXPECT_EQ(B.freePageCount(), 1000u);
  // The seed tiling is restored exactly: blocks never merged past it.
  EXPECT_EQ(B.largestFreeBlockPages(), 512u);
  EXPECT_TRUE(B.verify());
}

TEST(BuddyAllocatorTest, FixedScriptOnAnUnevenSpanReturnsPinnedPages) {
  // 200 pages seed as 128 + 64 + 8. Each step allocates ('a') a block of
  // the given order, expecting the pinned first page (NoPage: nothing free
  // that large), or frees ('f') the block the given earlier step got. The
  // pages pin the free-list order, splits and coalescing exactly.
  constexpr uint32_t NoPage = BuddyAllocator::NoPage;
  struct Step {
    char Op;
    unsigned Arg;
    uint32_t Page;
  };
  const Step Script[] = {
      {'a', 3, 192}, {'a', 0, 128}, {'f', 1, 0}, {'a', 0, 128},
      {'a', 1, 130}, {'f', 4, 0}, {'a', 0, 129}, {'a', 1, 130},
      {'a', 2, 132}, {'a', 0, 136}, {'a', 5, 160}, {'a', 0, 137},
      {'a', 0, 138}, {'a', 2, 140}, {'a', 1, 144}, {'a', 4, 0},
      {'f', 10, 0}, {'a', 5, 160}, {'a', 0, 139}, {'a', 0, 146},
      {'a', 1, 148}, {'a', 5, 32}, {'a', 4, 16}, {'a', 4, 64},
      {'a', 4, 80}, {'f', 3, 0}, {'a', 3, 152}, {'a', 4, 96},
      {'f', 13, 0}, {'a', 2, 140}, {'a', 0, 128}, {'f', 14, 0},
      {'a', 0, 147}, {'f', 9, 0}, {'a', 2, 112}, {'f', 34, 0},
      {'a', 5, NoPage}, {'a', 2, 112}, {'f', 26, 0}, {'a', 4, NoPage},
      {'a', 4, NoPage}, {'f', 29, 0}, {'a', 0, 136}, {'a', 1, 144},
      {'a', 0, 150}, {'a', 1, 140}, {'a', 0, 151}, {'a', 1, 142},
      {'a', 1, 116}, {'a', 0, 118}, {'f', 45, 0}, {'f', 48, 0},
      {'f', 12, 0}, {'a', 0, 138}, {'f', 42, 0}, {'a', 0, 136},
      {'a', 0, 119}, {'f', 7, 0}, {'a', 0, 130}, {'a', 1, 116},
      {'a', 0, 131}, {'a', 2, 152}, {'a', 5, NoPage},
  };
  BuddyAllocator B(200, 7);
  std::vector<uint32_t> Got;
  for (size_t I = 0; I < std::size(Script); ++I) {
    const Step &S = Script[I];
    if (S.Op == 'a') {
      Got.push_back(B.allocPages(S.Arg));
      EXPECT_EQ(Got.back(), S.Page) << "step " << I;
    } else {
      const Step &Alloc = Script[S.Arg];
      ASSERT_EQ(Alloc.Op, 'a');
      B.freePages(Got[S.Arg], Alloc.Arg);
      Got.push_back(NoPage);
    }
    ASSERT_TRUE(B.verify()) << "step " << I;
  }
  EXPECT_EQ(B.freePageCount(), 14u);
  EXPECT_EQ(B.largestFreeBlockPages(), 8u);
  EXPECT_EQ(B.totalSplits(), 37u);
  EXPECT_EQ(B.totalCoalesces(), 8u);
}

TEST(BuddyAllocatorTest, ExhaustionReturnsNoPage) {
  BuddyAllocator B(16, 4);
  EXPECT_NE(B.allocPages(4), BuddyAllocator::NoPage);
  EXPECT_EQ(B.allocPages(0), BuddyAllocator::NoPage);
  EXPECT_EQ(B.allocPages(4), BuddyAllocator::NoPage);
}

TEST(BuddyAllocatorTest, AllocatedOrderAtRecoversTheBlockOrder) {
  BuddyAllocator B(64, 6);
  uint32_t Big = B.allocPages(2);
  ASSERT_NE(Big, BuddyAllocator::NoPage);
  EXPECT_EQ(B.allocatedOrderAt(Big), 2);
  // Interior pages of the block carry no order mark.
  EXPECT_EQ(B.allocatedOrderAt(Big + 1), BuddyAllocator::NoOrder);
  B.freePages(Big, 2);
  EXPECT_EQ(B.allocatedOrderAt(Big), BuddyAllocator::NoOrder);
}

TEST(BuddyAllocatorDeathTest, FreeAtTheWrongOrderDies) {
  BuddyAllocator B(64, 6);
  uint32_t Page = B.allocPages(1);
  ASSERT_NE(Page, BuddyAllocator::NoPage);
  EXPECT_DEATH(B.freePages(Page, 2), "not allocated at this order");
  EXPECT_DEATH(B.freePages(Page + 1, 1), "not allocated at this order");
}

TEST(BuddyAllocatorDeathTest, DoubleFreeDies) {
  BuddyAllocator B(64, 6);
  uint32_t Page = B.allocPages(0);
  ASSERT_NE(Page, BuddyAllocator::NoPage);
  B.freePages(Page, 0);
  EXPECT_DEATH(B.freePages(Page, 0), "not allocated at this order");
}

} // namespace
