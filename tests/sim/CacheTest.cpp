//===- tests/sim/CacheTest.cpp - Cache model unit tests -------------------===//

#include "sim/Cache.h"

#include <gtest/gtest.h>

#include <string>

using namespace ddm;

namespace {

CacheGeometry tiny(unsigned SizeKb, unsigned Assoc) {
  return CacheGeometry{SizeKb * 1024ull, Assoc, 64};
}

} // namespace

TEST(CacheTest, CompulsoryMissThenHit) {
  Cache C(tiny(32, 8));
  EXPECT_FALSE(C.access(0x1000, false).Hit);
  EXPECT_TRUE(C.access(0x1000, false).Hit);
  EXPECT_TRUE(C.access(0x103F, false).Hit);  // same line
  EXPECT_FALSE(C.access(0x1040, false).Hit); // next line
  EXPECT_EQ(C.hits(), 2u);
  EXPECT_EQ(C.misses(), 2u);
}

TEST(CacheTest, LruEvictionWithinSet) {
  // 2-way, line 64: two lines per set. Three lines mapping to one set
  // evict in LRU order.
  Cache C(CacheGeometry{1024, 2, 64}); // 8 sets
  uint64_t SetStride = 8 * 64;
  uintptr_t A = 0, B = SetStride, D = 2 * SetStride;
  C.access(A, false);
  C.access(B, false);
  C.access(A, false);          // A most recent
  auto Out = C.access(D, false); // evicts B (LRU)
  EXPECT_FALSE(Out.Hit);
  EXPECT_TRUE(Out.Evicted);
  EXPECT_TRUE(C.access(A, false).Hit);
  EXPECT_FALSE(C.access(B, false).Hit); // B was the victim
}

TEST(CacheTest, DirtyEvictionReported) {
  Cache C(CacheGeometry{1024, 2, 64});
  uint64_t SetStride = 8 * 64;
  C.access(0, true); // dirty
  C.access(SetStride, false);
  auto Out = C.access(2 * SetStride, false); // evicts line 0
  ASSERT_TRUE(Out.Evicted);
  EXPECT_TRUE(Out.EvictedDirty);
  EXPECT_EQ(Out.EvictedLine, 0u);
}

TEST(CacheTest, CleanEvictionNotDirty) {
  Cache C(CacheGeometry{1024, 2, 64});
  uint64_t SetStride = 8 * 64;
  C.access(0, false);
  C.access(SetStride, false);
  auto Out = C.access(2 * SetStride, false);
  ASSERT_TRUE(Out.Evicted);
  EXPECT_FALSE(Out.EvictedDirty);
}

TEST(CacheTest, WriteMakesLineDirty) {
  Cache C(CacheGeometry{1024, 2, 64});
  uint64_t SetStride = 8 * 64;
  C.access(0, false);
  C.access(0, true); // hit-write dirties the line
  C.access(SetStride, false);
  auto Out = C.access(2 * SetStride, false);
  ASSERT_TRUE(Out.Evicted);
  EXPECT_TRUE(Out.EvictedDirty);
}

TEST(CacheTest, InstallDoesNotCountAsDemand) {
  Cache C(tiny(32, 8));
  C.install(0x2000, true);
  EXPECT_EQ(C.misses(), 0u);
  EXPECT_EQ(C.hits(), 0u);
  auto Out = C.access(0x2000, false);
  EXPECT_TRUE(Out.Hit);
  EXPECT_TRUE(Out.HitWasPrefetched);
  // The prefetched mark is consumed by the first hit.
  EXPECT_FALSE(C.access(0x2000, false).HitWasPrefetched);
}

TEST(CacheTest, InstallOnResidentLineIsNoOp) {
  Cache C(tiny(32, 8));
  C.access(0x3000, true);
  auto Out = C.install(0x3000, true);
  EXPECT_TRUE(Out.Hit);
  // The line keeps its dirty state and is not marked prefetched.
  EXPECT_FALSE(C.access(0x3000, false).HitWasPrefetched);
}

namespace {

/// A fill enters just below MRU, not at the LRU end: it is stamped one
/// tick before its own clock tick, so it is younger than every line of its
/// set used before the latest access, and ties with that access. One set
/// of four ways; lines fill ways 0..3 in order while empty. The clock
/// starts at \p ClockStart.
void expectFillOutlivesOlderLinesOfItsSet(uint32_t ClockStart) {
  Cache C(CacheGeometry{4 * 64, 4, 64});
  ASSERT_EQ(C.numSets(), 1u);
  C.setClockForTesting(ClockStart);
  auto Line = [](uint64_t N) { return static_cast<uintptr_t>(N * 64); };
  auto EvictedBy = [&](uint64_t N) {
    Cache::Outcome Out = C.access(Line(N), false);
    EXPECT_FALSE(Out.Hit);
    EXPECT_TRUE(Out.Evicted);
    return Out.EvictedLine;
  };
  for (uint64_t N = 0; N < 4; ++N)
    C.access(Line(N), false); // ways 0..3 hold lines 0..3
  EXPECT_EQ(EvictedBy(4), 0u); // line 4 takes way 0
  EXPECT_TRUE(C.access(Line(2), false).Hit);
  C.install(Line(9), /*MarkPrefetched=*/true); // evicts line 1, way 1
  EXPECT_FALSE(C.probe(Line(1)));
  // Lines 3 and 4 were used before the fill and leave first.
  EXPECT_EQ(EvictedBy(5), 3u);
  EXPECT_EQ(EvictedBy(6), 4u);
  // The fill (way 1) shares its stamp with the line 2 access (way 2) just
  // before it; the tie goes to the earlier way, so the fill leaves first.
  EXPECT_EQ(EvictedBy(7), 9u);
  EXPECT_EQ(EvictedBy(8), 2u);
}

} // namespace

TEST(CacheTest, PrefetchedLineOutlivesOlderLinesOfItsSet) {
  expectFillOutlivesOlderLinesOfItsSet(1);
}

TEST(CacheTest, FillAfterStampRenumberingStillTiesWithThePriorAccess) {
  // The six accesses before the fill tick the clock from ClockStart to
  // ClockStart + 6; at MaxClock - 6 the renumbering runs on the fill's own
  // tick, between the access and the fill that must tie with it. The other
  // starts put it at each of the other steps of the sequence.
  for (uint32_t Back = 1; Back <= 12; ++Back) {
    SCOPED_TRACE("clock starts at MaxClock - " + std::to_string(Back));
    expectFillOutlivesOlderLinesOfItsSet(Cache::MaxClock - Back);
  }
}

TEST(CacheTest, MarkDirtyIfPresent) {
  Cache C(tiny(32, 8));
  EXPECT_FALSE(C.markDirtyIfPresent(0x4000));
  C.access(0x4000, false);
  EXPECT_TRUE(C.markDirtyIfPresent(0x4000));
  // Eviction of that line must now report dirty.
  uint64_t Sets = C.numSets();
  for (unsigned I = 1; I <= 8; ++I)
    C.access(0x4000 + I * Sets * 64, false);
  // 8 more lines in the same set of an 8-way cache: line 0x4000 evicted.
  EXPECT_FALSE(C.probe(0x4000));
}

TEST(CacheTest, WorkingSetSmallerThanCacheAlwaysHitsAfterWarmup) {
  Cache C(tiny(32, 8));
  for (int Round = 0; Round < 3; ++Round)
    for (uintptr_t Addr = 0; Addr < 16 * 1024; Addr += 64)
      C.access(Addr, false);
  // Rounds 2 and 3 hit entirely.
  EXPECT_EQ(C.misses(), 16u * 1024 / 64);
}

TEST(CacheTest, WorkingSetLargerThanCacheThrashes) {
  Cache C(tiny(8, 2));
  uint64_t Lines = 4 * (8 * 1024) / 64; // 4x capacity
  for (int Round = 0; Round < 3; ++Round)
    for (uint64_t I = 0; I < Lines; ++I)
      C.access(I * 64, false);
  // Sequential sweep of 4x capacity with LRU: everything misses.
  EXPECT_EQ(C.misses(), 3 * Lines);
}

TEST(CacheTest, ResetClearsState) {
  Cache C(tiny(32, 8));
  C.access(0x5000, true);
  C.reset();
  EXPECT_EQ(C.hits(), 0u);
  EXPECT_EQ(C.misses(), 0u);
  EXPECT_FALSE(C.probe(0x5000));
}
