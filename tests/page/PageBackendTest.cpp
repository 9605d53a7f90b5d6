//===- tests/page/PageBackendTest.cpp - Buddy backend + BackedSpan -------===//

#include "page/PageBackend.h"
#include "support/FaultInjection.h"

#include "gtest/gtest.h"

#include <cstring>
#include <utility>
#include <vector>

using namespace ddm;

namespace {

std::shared_ptr<BuddyPageBackend> smallBackend(size_t Pages = 64) {
  return std::make_shared<BuddyPageBackend>(Pages * 4096);
}

TEST(PageBackendTest, AcquireReleaseRoundTripUpdatesStats) {
  auto Backend = smallBackend();
  PageBackendStats Fresh = Backend->stats();
  EXPECT_EQ(Fresh.PagesAcquired, 0u);
  EXPECT_EQ(Fresh.FreePages, 64u);
  EXPECT_EQ(Fresh.LargestFreeRunPages, 64u);
  EXPECT_DOUBLE_EQ(Fresh.externalFragmentation(), 0.0);

  std::byte *Span = Backend->acquire(2 * 4096, 4096);
  ASSERT_NE(Span, nullptr);
  EXPECT_TRUE(Backend->contains(Span));
  std::memset(Span, 0xAB, 2 * 4096); // The memory is real and usable.

  PageBackendStats Held = Backend->stats();
  EXPECT_EQ(Held.PagesAcquired, 2u);
  EXPECT_EQ(Held.PagesLive, 2u);
  EXPECT_EQ(Held.PeakPagesLive, 2u);
  EXPECT_EQ(Held.FreePages, 62u);

  Backend->release(Span, 2 * 4096);
  PageBackendStats After = Backend->stats();
  EXPECT_EQ(After.PagesReclaimed, 2u);
  EXPECT_EQ(After.PagesLive, 0u);
  EXPECT_EQ(After.PeakPagesLive, 2u); // High water sticks.
  EXPECT_EQ(After.FreePages, 64u);
  EXPECT_EQ(After.LargestFreeRunPages, 64u);
}

TEST(PageBackendTest, AlignmentIsHonored) {
  BuddyPageBackend Backend(4ull * 1024 * 1024);
  for (size_t Alignment : {size_t(4096), size_t(64) * 1024,
                           size_t(1024) * 1024}) {
    std::byte *Span = Backend.acquire(4096, Alignment);
    ASSERT_NE(Span, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(Span) % Alignment, 0u)
        << "alignment " << Alignment;
    Backend.release(Span, 4096);
  }
}

TEST(PageBackendTest, ExhaustionReturnsNullUntilPagesComeBack) {
  auto Backend = smallBackend(16);
  std::byte *All = Backend->acquire(16 * 4096, 4096);
  ASSERT_NE(All, nullptr);
  EXPECT_EQ(Backend->acquire(4096, 4096), nullptr);
  // Larger than the whole reservation is never satisfiable.
  EXPECT_EQ(Backend->acquire(1ull << 30, 4096), nullptr);
  Backend->release(All, 16 * 4096);
  std::byte *Again = Backend->acquire(4096, 4096);
  EXPECT_NE(Again, nullptr);
  Backend->release(Again, 4096);
}

TEST(PageBackendTest, ExternalFragmentationReflectsShatteredFreeSpace) {
  auto Backend = smallBackend(64);
  // Pin every other page so the free space cannot form one large run.
  std::vector<std::byte *> Pinned;
  std::vector<std::byte *> Released;
  for (unsigned I = 0; I < 32; ++I) {
    std::byte *A = Backend->acquire(4096, 4096);
    std::byte *B = Backend->acquire(4096, 4096);
    ASSERT_NE(A, nullptr);
    ASSERT_NE(B, nullptr);
    Pinned.push_back(A);
    Released.push_back(B);
  }
  for (std::byte *Span : Released)
    Backend->release(Span, 4096);
  PageBackendStats Shattered = Backend->stats();
  EXPECT_EQ(Shattered.FreePages, 32u);
  EXPECT_LT(Shattered.LargestFreeRunPages, 32u);
  EXPECT_GT(Shattered.externalFragmentation(), 0.0);
  // Releasing the pins coalesces everything back into one run.
  for (std::byte *Span : Pinned)
    Backend->release(Span, 4096);
  PageBackendStats Whole = Backend->stats();
  EXPECT_EQ(Whole.LargestFreeRunPages, 64u);
  EXPECT_DOUBLE_EQ(Whole.externalFragmentation(), 0.0);
  EXPECT_GT(Whole.Coalesces, 0u);
}

TEST(PageBackendTest, PageAcquireFaultSiteFires) {
  auto Backend = smallBackend();
  FaultPlan Plan;
  std::string Error;
  ASSERT_TRUE(FaultPlan::parse("seed=1,page_acquire:every=1", Plan, Error))
      << Error;
  FaultInjector::instance().arm(Plan);
  EXPECT_EQ(Backend->acquire(4096, 4096), nullptr);
  EXPECT_GT(FaultInjector::instance().counters(FaultSite::PageAcquire).Fired,
            0u);
  FaultInjector::instance().disarm();
  std::byte *Span = Backend->acquire(4096, 4096);
  EXPECT_NE(Span, nullptr);
  Backend->release(Span, 4096);
}

TEST(PageBackendTest, BackedSpanReturnsItsPagesOnDestruction) {
  auto Backend = smallBackend();
  {
    BackedSpan Span = BackedSpan::create(8 * 4096, 4096, Backend);
    EXPECT_NE(Span.base(), nullptr);
    EXPECT_EQ(Span.size(), 8u * 4096);
    EXPECT_TRUE(Span.contains(Span.base()));
    EXPECT_TRUE(Span.contains(Span.base() + Span.size() - 1));
    EXPECT_FALSE(Span.contains(Span.base() + Span.size()));
    EXPECT_EQ(Backend->stats().PagesLive, 8u);
  }
  PageBackendStats After = Backend->stats();
  EXPECT_EQ(After.PagesLive, 0u);
  EXPECT_EQ(After.PagesReclaimed, 8u);
}

TEST(PageBackendTest, BackedSpanMoveTransfersOwnership) {
  auto Backend = smallBackend();
  BackedSpan Outer;
  {
    BackedSpan Inner = BackedSpan::create(4096, 4096, Backend);
    Outer = std::move(Inner);
  }
  // The moved-from span died without releasing: the pages follow Outer.
  EXPECT_EQ(Backend->stats().PagesLive, 1u);
  Outer = BackedSpan();
  EXPECT_EQ(Backend->stats().PagesLive, 0u);
}

TEST(PageBackendTest, BackedSpanPrivatePathWorksWithoutABackend) {
  std::optional<BackedSpan> Span =
      BackedSpan::tryCreate(64 * 1024, 4096, nullptr);
  ASSERT_TRUE(Span.has_value());
  ASSERT_NE(Span->base(), nullptr);
  std::memset(Span->base(), 0x5C, Span->size());
  EXPECT_TRUE(Span->contains(Span->base()));
}

TEST(PageBackendTest, TryCreateReportsExhaustion) {
  auto Backend = smallBackend(16);
  std::string Error;
  std::optional<BackedSpan> Span =
      BackedSpan::tryCreate(1ull << 30, 4096, Backend, &Error);
  EXPECT_FALSE(Span.has_value());
  EXPECT_NE(Error.find("exhausted"), std::string::npos) << Error;
}

TEST(PageBackendTest, ResidencyModelSurvivesReleaseUntilAdviseOut) {
  auto Backend = smallBackend();
  std::byte *A = Backend->acquire(4 * 4096, 4096);
  std::byte *B = Backend->acquire(2 * 4096, 4096);
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  PageBackendStats Held = Backend->stats();
  EXPECT_EQ(Held.ResidentPages, 6u);
  EXPECT_EQ(Held.PeakResidentPages, 6u);
  EXPECT_EQ(Held.residentBytes(), 6u * 4096);

  // Freeing memory does not shrink RSS: the pages stay resident.
  Backend->release(A, 4 * 4096);
  PageBackendStats Freed = Backend->stats();
  EXPECT_EQ(Freed.PagesLive, 2u);
  EXPECT_EQ(Freed.ResidentPages, 6u);

  // adviseOut models the madvise: only the free-but-resident pages drop.
  uint64_t Dropped = Backend->adviseOut();
  EXPECT_EQ(Dropped, 4u * 4096);
  PageBackendStats Advised = Backend->stats();
  EXPECT_EQ(Advised.ResidentPages, 2u);
  EXPECT_EQ(Advised.PeakResidentPages, 6u); // High water sticks.
  EXPECT_EQ(Advised.AdvisedOutPages, 4u);

  // A second give-back with nothing free-and-resident drops nothing.
  EXPECT_EQ(Backend->adviseOut(), 0u);

  // Re-acquired pages fault back in and count toward RSS again.
  std::byte *C = Backend->acquire(4 * 4096, 4096);
  ASSERT_NE(C, nullptr);
  PageBackendStats Refaulted = Backend->stats();
  EXPECT_EQ(Refaulted.ResidentPages, 6u);
  EXPECT_EQ(Refaulted.AdvisedOutPages, 4u); // Cumulative.
  Backend->release(B, 2 * 4096);
  Backend->release(C, 4 * 4096);
}

TEST(PageBackendTest, BookkeepingIsResidentOnlyWhereBlocksWereUsed) {
  // A 1 GiB backend has 262144 pages and 2.75 MiB of per-page
  // bookkeeping (free-list links, block orders, live and resident bytes),
  // all on reserved pages. Seeding the span writes two links; a split
  // chain writes one link per order, each order's buddy on its own page of
  // the link arrays; the spans below index pages near the bottom of the
  // span. All of it stays under a tenth of the arrays' 704 pages.
  const size_t Page = 4096;
  BuddyPageBackend Backend(size_t(1) << 30);
  EXPECT_LE(Backend.residentBookkeepingBytes(), 4 * Page);

  std::vector<std::pair<std::byte *, size_t>> Spans;
  for (size_t Bytes : {size_t(64) << 10, size_t(2) << 20, size_t(300) << 10,
                       size_t(4096), size_t(1) << 20})
    for (int I = 0; I < 8; ++I) {
      std::byte *Span = Backend.acquire(Bytes, BuddyPageBackend::MaxAlignment);
      ASSERT_NE(Span, nullptr);
      Spans.emplace_back(Span, Bytes);
    }
  size_t Held = Backend.residentBookkeepingBytes();
  for (auto [Span, Bytes] : Spans)
    Backend.release(Span, Bytes);
  Backend.adviseOut();
  size_t Released = Backend.residentBookkeepingBytes();
  EXPECT_LE(Held, 64 * Page) << Held;
  EXPECT_LE(Released, 64 * Page) << Released;
}

TEST(PageBackendDeathTest, ReleaseOfASpanItDidNotHandOutDies) {
  auto Backend = smallBackend();
  std::byte *Span = Backend->acquire(2 * 4096, 4096);
  ASSERT_NE(Span, nullptr);
  // An interior page of a live block is not a block start.
  EXPECT_DEATH(Backend->release(Span + 4096, 4096), "did not hand out");
  Backend->release(Span, 2 * 4096);
  EXPECT_DEATH(Backend->release(Span, 2 * 4096), "did not hand out");
}

TEST(PageBackendDeathTest, ReleaseLargerThanTheSpanDies) {
  auto Backend = smallBackend();
  std::byte *Span = Backend->acquire(4096, 4096);
  ASSERT_NE(Span, nullptr);
  EXPECT_DEATH(Backend->release(Span, 16 * 4096), "larger than the span");
  Backend->release(Span, 4096);
}

} // namespace
