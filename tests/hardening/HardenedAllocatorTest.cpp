//===- tests/hardening/HardenedAllocatorTest.cpp - Wrapper mechanics ------===//
///
/// The corruption-detecting wrapper's contract, pinned at the unit level:
/// the factory wraps (and unwraps) on the Hardening.Enabled switch, stats
/// count user bytes only (quarantined bytes are *not* live bytes — the
/// OOM rollback invariant and fig09 depend on it), and each of the four
/// misuse classes — overflow, use-after-free, double free, foreign
/// pointer — produces exactly one precisely-attributed CorruptionReport.
/// Without a handler, detection is fatal; the death tests pin that
/// boundary and the diagnostic format.
///
//===----------------------------------------------------------------------===//

#include "core/AllocatorFactory.h"
#include "hardening/Hardening.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

using namespace ddm;

namespace {

AllocatorOptions hardenedOptions() {
  AllocatorOptions Options;
  Options.Hardening.Enabled = true;
  return Options;
}

/// A hardened glibc-model heap plus a recorder for its reports.
struct Fixture {
  std::unique_ptr<TxAllocator> Alloc;
  HardenedAllocator *H = nullptr;
  std::vector<CorruptionReport> Reports;

  explicit Fixture(AllocatorKind Kind = AllocatorKind::Glibc,
                   AllocatorOptions Options = hardenedOptions()) {
    Alloc = createAllocator(Kind, Options);
    H = asHardened(Alloc.get());
    if (H)
      H->setReportHandler(
          [this](const CorruptionReport &R) { Reports.push_back(R); });
  }
};

TEST(HardenedAllocatorTest, FactoryWrapsExactlyWhenEnabled) {
  for (AllocatorKind Kind : allAllocatorKinds()) {
    SCOPED_TRACE(allocatorKindName(Kind));
    AllocatorOptions Plain;
    auto Bare = createAllocator(Kind, Plain);
    EXPECT_EQ(asHardened(Bare.get()), nullptr);

    auto Wrapped = createAllocator(Kind, hardenedOptions());
    ASSERT_NE(asHardened(Wrapped.get()), nullptr);
    // The wrapper is transparent to tables and JSON: same allocator key.
    EXPECT_STREQ(Wrapped->name(), Bare->name());
    EXPECT_EQ(Wrapped->supportsPerObjectFree(), Bare->supportsPerObjectFree());
    EXPECT_EQ(Wrapped->supportsBulkFree(), Bare->supportsBulkFree());
  }
}

TEST(HardenedAllocatorTest, StatsCountUserBytesOnly) {
  Fixture F;
  void *P = F.Alloc->allocate(100);
  ASSERT_NE(P, nullptr);
  // Header + red-zone overhead is real memory but not *user* memory.
  EXPECT_EQ(F.Alloc->stats().UsableBytesLive, 100u);
  EXPECT_EQ(F.Alloc->usableSize(P), 100u);
  F.Alloc->deallocate(P);
  EXPECT_EQ(F.Alloc->stats().UsableBytesLive, 0u);
  EXPECT_TRUE(F.Reports.empty());
}

TEST(HardenedAllocatorTest, QuarantinedBytesAreNotLiveBytes) {
  // The OOM rollback invariant (live == 0 after cleanup) and the fig09
  // memory columns must hold under --harden even while freed objects sit
  // poisoned in the quarantine ring awaiting recycle.
  Fixture F;
  std::vector<void *> Ptrs;
  for (int I = 0; I < 16; ++I)
    Ptrs.push_back(F.Alloc->allocate(64));
  EXPECT_EQ(F.Alloc->stats().UsableBytesLive, 16u * 64u);
  for (void *P : Ptrs)
    F.Alloc->deallocate(P);
  // All 16 fit in the default 64-slot ring: still quarantined, not live.
  EXPECT_EQ(F.H->hardeningStats().QuarantinedBytes, 16u * 64u);
  EXPECT_EQ(F.Alloc->stats().UsableBytesLive, 0u);
  F.H->drainQuarantine();
  EXPECT_EQ(F.H->hardeningStats().QuarantinedBytes, 0u);
  EXPECT_EQ(F.H->hardeningStats().QuarantineRecycles, 16u);
  EXPECT_TRUE(F.Reports.empty());
}

TEST(HardenedAllocatorTest, QuarantineSlotBoundRecyclesTheOldestEntry) {
  // Each object gets its own size and a dangling write after its free, so
  // the UseAfterFree report of a recycle names the entry that left.
  Fixture F;
  const uint32_t Slots = HardenedAllocator::QuarantineSlots;
  ASSERT_EQ(Slots, 64u);
  std::vector<uint8_t *> Ptrs;
  for (uint32_t I = 0; I <= Slots; ++I)
    Ptrs.push_back(static_cast<uint8_t *>(F.Alloc->allocate(100 + I)));
  uint64_t Parked = 0;
  for (uint32_t I = 0; I < Slots; ++I) {
    F.Alloc->deallocate(Ptrs[I]);
    Ptrs[I][0] ^= 0xff;
    Parked += 100 + I;
  }
  EXPECT_EQ(F.H->hardeningStats().QuarantineRecycles, 0u);
  EXPECT_EQ(F.H->hardeningStats().QuarantinedBytes, Parked);
  EXPECT_TRUE(F.Reports.empty());

  F.Alloc->deallocate(Ptrs[Slots]);
  EXPECT_EQ(F.H->hardeningStats().QuarantineRecycles, 1u);
  EXPECT_EQ(F.H->hardeningStats().QuarantinedBytes,
            Parked - 100 + (100 + Slots));
  ASSERT_EQ(F.Reports.size(), 1u);
  EXPECT_EQ(F.Reports[0].Kind, CorruptionKind::UseAfterFree);
  EXPECT_EQ(F.Reports[0].Site, "quarantine_recycle");
  EXPECT_EQ(F.Reports[0].UserSize, 100u);
}

TEST(HardenedAllocatorTest, QuarantineByteBoundRecyclesOldestFirst) {
  Fixture F;
  const uint64_t MaxBytes = HardenedAllocator::QuarantineMaxBytes;
  ASSERT_EQ(MaxBytes, 1024u * 1024u);
  // Three of these fit under the bound, four do not.
  const uint64_t Big = 300 * 1024;
  const uint64_t Sizes[] = {Big + 1, Big + 2, Big + 3, Big + 4, 700 * 1024};
  std::vector<uint8_t *> Ptrs;
  for (uint64_t Size : Sizes)
    Ptrs.push_back(static_cast<uint8_t *>(F.Alloc->allocate(Size)));
  auto Free = [&](size_t I) {
    F.Alloc->deallocate(Ptrs[I]);
    Ptrs[I][0] ^= 0xff;
  };
  auto RecycledSizes = [&F] {
    std::vector<uint64_t> Out;
    for (const CorruptionReport &R : F.Reports)
      Out.push_back(R.UserSize);
    return Out;
  };
  for (size_t I = 0; I < 3; ++I)
    Free(I);
  EXPECT_EQ(F.H->hardeningStats().QuarantinedBytes,
            Sizes[0] + Sizes[1] + Sizes[2]);
  EXPECT_TRUE(F.Reports.empty());

  // The fourth free crosses the bound; dropping the oldest entry is enough.
  Free(3);
  EXPECT_EQ(RecycledSizes(), (std::vector<uint64_t>{Sizes[0]}));
  EXPECT_EQ(F.H->hardeningStats().QuarantinedBytes,
            Sizes[1] + Sizes[2] + Sizes[3]);

  // The fifth crosses it by more than one entry: the two oldest go, in
  // order, and the ring stops as soon as it is back under the bound.
  Free(4);
  EXPECT_EQ(RecycledSizes(),
            (std::vector<uint64_t>{Sizes[0], Sizes[1], Sizes[2]}));
  EXPECT_EQ(F.H->hardeningStats().QuarantineRecycles, 3u);
  EXPECT_EQ(F.H->hardeningStats().QuarantinedBytes, Sizes[3] + Sizes[4]);
  EXPECT_LE(F.H->hardeningStats().QuarantinedBytes, MaxBytes);
  for (const CorruptionReport &R : F.Reports) {
    EXPECT_EQ(R.Kind, CorruptionKind::UseAfterFree);
    EXPECT_EQ(R.Site, "quarantine_recycle");
  }
}

TEST(HardenedAllocatorTest, QuarantineRingIsFifoOverSeveralLaps) {
  // Free 3 x QuarantineSlots + 5 objects, each with its own size and a
  // dangling write after its free, so the reports name the recycled
  // entries in the order they left the ring.
  Fixture F;
  const uint32_t Slots = HardenedAllocator::QuarantineSlots;
  const uint32_t N = 3 * Slots + 5;
  auto SizeOf = [](uint32_t I) { return uint64_t(16 + I); };
  std::vector<uint8_t *> Ptrs;
  for (uint32_t I = 0; I < N; ++I)
    Ptrs.push_back(static_cast<uint8_t *>(F.Alloc->allocate(SizeOf(I))));
  auto RecycledSizes = [&F] {
    std::vector<uint64_t> Out;
    for (const CorruptionReport &R : F.Reports) {
      EXPECT_EQ(R.Kind, CorruptionKind::UseAfterFree);
      Out.push_back(R.UserSize);
    }
    return Out;
  };
  auto SizesOf = [&](uint32_t Begin, uint32_t End) {
    std::vector<uint64_t> Out;
    for (uint32_t I = Begin; I < End; ++I)
      Out.push_back(SizeOf(I));
    return Out;
  };
  auto BytesOf = [&](uint32_t Begin, uint32_t End) {
    uint64_t Sum = 0;
    for (uint32_t I = Begin; I < End; ++I)
      Sum += SizeOf(I);
    return Sum;
  };
  for (uint32_t I = 0; I < N; ++I) {
    F.Alloc->deallocate(Ptrs[I]);
    Ptrs[I][0] ^= 0xff;
    // Entries [Oldest, I] are parked; everything older has been recycled.
    const uint32_t Oldest = I + 1 > Slots ? I + 1 - Slots : 0;
    ASSERT_EQ(F.H->hardeningStats().QuarantineRecycles, Oldest) << I;
    ASSERT_EQ(F.H->hardeningStats().QuarantinedBytes, BytesOf(Oldest, I + 1))
        << I;
  }
  EXPECT_EQ(RecycledSizes(), SizesOf(0, N - Slots));

  // Draining empties the ring oldest first.
  F.H->drainQuarantine();
  EXPECT_EQ(RecycledSizes(), SizesOf(0, N));
  EXPECT_EQ(F.H->hardeningStats().QuarantineRecycles, N);
  EXPECT_EQ(F.H->hardeningStats().QuarantinedBytes, 0u);
  F.H->drainQuarantine();
  EXPECT_EQ(F.H->hardeningStats().QuarantineRecycles, N);

  // A free larger than QuarantineMaxBytes pushes every parked entry out,
  // oldest first, and then recycles itself at once.
  F.Reports.clear();
  std::vector<uint8_t *> Small;
  for (uint32_t I = 0; I < 5; ++I)
    Small.push_back(static_cast<uint8_t *>(F.Alloc->allocate(SizeOf(I))));
  for (uint8_t *P : Small) {
    F.Alloc->deallocate(P);
    P[0] ^= 0xff;
  }
  void *Big = F.Alloc->allocate(HardenedAllocator::QuarantineMaxBytes + 1);
  ASSERT_NE(Big, nullptr);
  F.Alloc->deallocate(Big);
  EXPECT_EQ(RecycledSizes(), SizesOf(0, 5));
  EXPECT_EQ(F.H->hardeningStats().QuarantineRecycles, N + 5 + 1);
  EXPECT_EQ(F.H->hardeningStats().QuarantinedBytes, 0u);
  EXPECT_EQ(F.Alloc->stats().UsableBytesLive, 0u);
}

TEST(HardenedAllocatorTest, RedzoneOverflowIsDetectedAndAttributed) {
  Fixture F;
  auto *P = static_cast<uint8_t *>(F.Alloc->allocate(40));
  P[40 + 2] ^= 0xff; // overflow two bytes past the object end
  F.Alloc->deallocate(P);
  ASSERT_EQ(F.Reports.size(), 1u);
  const CorruptionReport &R = F.Reports[0];
  EXPECT_EQ(R.Kind, CorruptionKind::RedzoneOverflow);
  EXPECT_EQ(R.Allocator, "glibc");
  EXPECT_EQ(R.Site, "deallocate");
  EXPECT_EQ(R.ByteOffset, 42u);
  EXPECT_EQ(R.UserSize, 40u);
  EXPECT_EQ(R.Found, static_cast<uint8_t>(R.Expected ^ 0xff));
  // Repair-after-report: the drain must not re-report the same scribble.
  F.H->drainQuarantine();
  EXPECT_EQ(F.H->hardeningStats().Reports, 1u);
}

TEST(HardenedAllocatorTest, UseAfterFreeWriteIsCaughtAtRecycle) {
  Fixture F;
  auto *P = static_cast<uint8_t *>(F.Alloc->allocate(48));
  F.Alloc->deallocate(P);
  P[5] ^= 0xff; // dangling write into the poisoned, quarantined object
  F.H->drainQuarantine();
  ASSERT_EQ(F.Reports.size(), 1u);
  const CorruptionReport &R = F.Reports[0];
  EXPECT_EQ(R.Kind, CorruptionKind::UseAfterFree);
  EXPECT_EQ(R.Site, "quarantine_recycle");
  EXPECT_EQ(R.ByteOffset, 5u);
  EXPECT_EQ(R.UserSize, 48u);
}

TEST(HardenedAllocatorTest, DoubleFreeIsDetectedWhileQuarantined) {
  Fixture F;
  void *P = F.Alloc->allocate(32);
  F.Alloc->deallocate(P);
  F.Alloc->deallocate(P);
  ASSERT_EQ(F.Reports.size(), 1u);
  EXPECT_EQ(F.Reports[0].Kind, CorruptionKind::DoubleFree);
  EXPECT_EQ(F.Reports[0].Site, "deallocate");
  EXPECT_EQ(F.Reports[0].UserSize, 32u);
  // The first free's quarantine entry is undisturbed by the second.
  F.H->drainQuarantine();
  EXPECT_EQ(F.H->hardeningStats().Reports, 1u);
}

TEST(HardenedAllocatorTest, ForeignPointerIsRejectedAsHeaderClobber) {
  Fixture F;
  // A pointer the heap never handed out: its would-be header cannot carry
  // a valid state checksum.
  alignas(16) static uint8_t NotMine[256];
  F.Alloc->deallocate(NotMine + 64);
  ASSERT_EQ(F.Reports.size(), 1u);
  EXPECT_EQ(F.Reports[0].Kind, CorruptionKind::HeaderClobber);
  // Nothing was freed: live accounting is untouched.
  EXPECT_EQ(F.Alloc->stats().UsableBytesLive, 0u);
}

TEST(HardenedAllocatorTest, ReallocPreservesContentsAndVerifies) {
  Fixture F;
  auto *P = static_cast<uint8_t *>(F.Alloc->allocate(24));
  for (int I = 0; I < 24; ++I)
    P[I] = static_cast<uint8_t>(I * 7);
  auto *Q = static_cast<uint8_t *>(F.Alloc->reallocate(P, 24, 100));
  ASSERT_NE(Q, nullptr);
  for (int I = 0; I < 24; ++I)
    EXPECT_EQ(Q[I], static_cast<uint8_t>(I * 7)) << I;
  EXPECT_EQ(F.Alloc->stats().UsableBytesLive, 100u);
  // Realloc of an already-freed pointer is a double free, not a grow.
  F.Alloc->deallocate(Q);
  EXPECT_EQ(F.Alloc->reallocate(Q, 100, 200), nullptr);
  ASSERT_EQ(F.Reports.size(), 1u);
  EXPECT_EQ(F.Reports[0].Kind, CorruptionKind::DoubleFree);
  EXPECT_EQ(F.Reports[0].Site, "reallocate");
}

TEST(HardenedAllocatorTest, FreeAllVerifiesLiveObjectsAndQuarantine) {
  // DDmalloc supports per-object free AND bulk free, so one heap can hold
  // both a live and a quarantined object when freeAll sweeps.
  Fixture F(AllocatorKind::DDmalloc);
  auto *Live = static_cast<uint8_t *>(F.Alloc->allocate(40));
  auto *Freed = static_cast<uint8_t *>(F.Alloc->allocate(40));
  F.Alloc->deallocate(Freed);
  Live[40] ^= 0x55; // overflow on a still-live object
  Freed[3] ^= 0x55; // dangling write to a quarantined one
  F.Alloc->freeAll();
  ASSERT_EQ(F.Reports.size(), 2u);
  EXPECT_EQ(F.Reports[0].Kind, CorruptionKind::RedzoneOverflow);
  EXPECT_EQ(F.Reports[0].Site, "free_all");
  EXPECT_EQ(F.Reports[1].Kind, CorruptionKind::UseAfterFree);
  EXPECT_EQ(F.Reports[1].Site, "free_all");
  EXPECT_EQ(F.Alloc->stats().UsableBytesLive, 0u);
  EXPECT_EQ(F.H->hardeningStats().QuarantinedBytes, 0u);
}

TEST(HardenedAllocatorTest, InjectionSitesFireExactlyOncePerTrigger) {
  // The chaos benches rely on a 1:1 mapping between a fired injection and
  // a raised report; pin it for one deterministic scribble of each kind.
  FaultPlan Plan;
  std::string Error;
  ASSERT_TRUE(FaultPlan::parse("seed=3,heap_scribble_overflow:every=2,"
                               "heap_scribble_uaf:every=3,"
                               "heap_double_free:every=4",
                               Plan, Error))
      << Error;
  FaultInjector::instance().arm(Plan);
  {
    Fixture F;
    for (int I = 0; I < 12; ++I)
      F.Alloc->deallocate(F.Alloc->allocate(64));
    F.H->drainQuarantine();
    const HardeningStats &S = F.H->hardeningStats();
    auto Fired = [](FaultSite Site) {
      return FaultInjector::instance().counters(Site).Fired;
    };
    EXPECT_EQ(S.ReportsByKind[unsigned(CorruptionKind::RedzoneOverflow)],
              Fired(FaultSite::HeapScribbleOverflow));
    EXPECT_EQ(S.ReportsByKind[unsigned(CorruptionKind::UseAfterFree)],
              Fired(FaultSite::HeapScribbleUaf));
    EXPECT_EQ(S.ReportsByKind[unsigned(CorruptionKind::DoubleFree)],
              Fired(FaultSite::HeapDoubleFree));
    EXPECT_GT(S.Reports, 0u);
  }
  FaultInjector::instance().disarm();
}

TEST(HardenedAllocatorTest, DescribeNamesTheDamage) {
  Fixture F;
  auto *P = static_cast<uint8_t *>(F.Alloc->allocate(16));
  P[16] ^= 0x01;
  F.Alloc->deallocate(P);
  ASSERT_EQ(F.Reports.size(), 1u);
  std::string Line = F.Reports[0].describe();
  EXPECT_NE(Line.find("heap corruption detected"), std::string::npos) << Line;
  EXPECT_NE(Line.find("redzone overflow"), std::string::npos) << Line;
  EXPECT_NE(Line.find("allocator=glibc"), std::string::npos) << Line;
  EXPECT_NE(Line.find("site=deallocate"), std::string::npos) << Line;
  EXPECT_NE(Line.find("offset=16"), std::string::npos) << Line;
}

using HardenedAllocatorDeathTest = ::testing::Test;

TEST(HardenedAllocatorDeathTest, DetectionWithoutHandlerIsFatal) {
  // The standalone misuse contract: no handler installed means the report
  // aborts the process with its one-line diagnostic.
  auto Alloc = createAllocator(AllocatorKind::Glibc, hardenedOptions());
  auto *P = static_cast<uint8_t *>(Alloc->allocate(32));
  P[32] ^= 0xff;
  EXPECT_DEATH(Alloc->deallocate(P),
               "heap corruption detected: redzone overflow");
}

TEST(HardenedAllocatorDeathTest, DoubleFreeWithoutHandlerIsFatal) {
  auto Alloc = createAllocator(AllocatorKind::Glibc, hardenedOptions());
  void *P = Alloc->allocate(32);
  Alloc->deallocate(P);
  EXPECT_DEATH(Alloc->deallocate(P), "heap corruption detected: double free");
}

} // namespace
