//===- tests/sim/SimSinkTest.cpp - Memory-hierarchy composition tests -----===//

#include "sim/SimSink.h"

#include <gtest/gtest.h>

using namespace ddm;

TEST(SimSinkTest, EffectiveCapacitiesXeon) {
  Platform P = xeonLike();
  // One active core: full private L1/TLB, a whole 4 MB L2.
  SimSink One(P, 1);
  EXPECT_EQ(One.effectiveL1DBytes(), 32u * 1024);
  EXPECT_EQ(One.effectiveL2Bytes(), 4u * 1024 * 1024);
  EXPECT_EQ(One.effectiveTlbEntries(), 256u);
  // Eight active cores: two share each L2.
  SimSink Eight(P, 8);
  EXPECT_EQ(Eight.effectiveL2Bytes(), 2u * 1024 * 1024);
  EXPECT_EQ(Eight.effectiveL1DBytes(), 32u * 1024);
}

TEST(SimSinkTest, EffectiveCapacitiesNiagara) {
  Platform P = niagaraLike();
  // Four threads share a core's L1 and TLB.
  SimSink One(P, 1);
  EXPECT_EQ(One.effectiveL1DBytes(), 2u * 1024);
  EXPECT_EQ(One.effectiveTlbEntries(), 16u);
  // 1 core -> 4 runtimes share the 3 MB L2.
  EXPECT_EQ(One.effectiveL2Bytes(), 3u * 1024 * 1024 / 4);
  // 8 cores -> 32 runtimes share it.
  SimSink Eight(P, 8);
  EXPECT_EQ(Eight.effectiveL2Bytes(), 3u * 1024 * 1024 / 32);
}

TEST(SimSinkTest, ModeledL2IsTheShareRoundedToPowerOfTwoSets) {
  // The L2 model rounds its set count down to a power of two, so it can
  // simulate less than the reported per-thread share. Xeon's shares fill
  // whole power-of-two set counts; Niagara's 3 MB 12-way L2 loses sets at
  // 3, 5, 6 and 7 active cores (a known modeling gap, pinned here).
  Platform Xeon = xeonLike();
  for (unsigned Cores = 1; Cores <= Xeon.Cores; ++Cores) {
    SimSink Sink(Xeon, Cores);
    EXPECT_EQ(Sink.modeledL2Bytes(), Sink.effectiveL2Bytes()) << Cores;
  }
  struct Expected {
    unsigned Cores;
    uint64_t ShareBytes;
    uint64_t ModeledBytes;
  };
  const uint64_t KiB = 1024;
  const Expected Niagara[] = {
      {1, 768 * KiB, 768 * KiB},           {2, 384 * KiB, 384 * KiB},
      {3, 262144, 192 * KiB},              {4, 192 * KiB, 192 * KiB},
      {5, 157286, 96 * KiB},               {6, 128 * KiB, 96 * KiB},
      {7, 3 * 1024 * KiB / 28, 96 * KiB}, {8, 96 * KiB, 96 * KiB},
  };
  for (const Expected &E : Niagara) {
    SimSink Sink(niagaraLike(), E.Cores);
    EXPECT_EQ(Sink.effectiveL2Bytes(), E.ShareBytes) << E.Cores << " cores";
    EXPECT_EQ(Sink.modeledL2Bytes(), E.ModeledBytes) << E.Cores << " cores";
  }
}

TEST(SimSinkTest, DomainAttribution) {
  SimSink Sink(xeonLike(), 1);
  Sink.setDomain(CostDomain::Application);
  Sink.instructions(100);
  Sink.load(0x1000, 8);
  Sink.setDomain(CostDomain::MemoryManagement);
  Sink.instructions(40);
  Sink.store(0x2000, 8);
  Sink.store(0x2008, 8);

  const DomainEvents &App = Sink.events(CostDomain::Application);
  const DomainEvents &Mm = Sink.events(CostDomain::MemoryManagement);
  EXPECT_EQ(App.Instructions, 100u);
  EXPECT_EQ(App.LineAccesses, 1u);
  EXPECT_EQ(Mm.Instructions, 40u);
  EXPECT_EQ(Mm.LineAccesses, 2u); // same line twice still counts accesses
  EXPECT_EQ(Sink.totalEvents().Instructions, 140u);
}

TEST(SimSinkTest, MissHierarchy) {
  SimSink Sink(xeonLike(), 1);
  Sink.setDomain(CostDomain::Application);
  // First touch: misses L1 and L2.
  Sink.load(0x40000, 8);
  DomainEvents E = Sink.totalEvents();
  EXPECT_EQ(E.L1DMisses, 1u);
  EXPECT_EQ(E.L2Misses, 1u);
  EXPECT_EQ(E.L2Hits, 0u);
  // Second touch: L1 hit, nothing deeper.
  Sink.load(0x40000, 8);
  E = Sink.totalEvents();
  EXPECT_EQ(E.L1DMisses, 1u);
  EXPECT_EQ(E.LineAccesses, 2u);
}

TEST(SimSinkTest, MultiLineAccessTouchesEachLine) {
  SimSink Sink(xeonLike(), 1);
  Sink.setDomain(CostDomain::Application);
  Sink.store(0x1000, 200); // spans 4 lines (0x1000..0x10C7)
  EXPECT_EQ(Sink.totalEvents().LineAccesses, 4u);
  // Unaligned spill into one extra line.
  Sink.store(0x2030, 64); // 0x2030..0x206F -> two lines
  EXPECT_EQ(Sink.totalEvents().LineAccesses, 6u);
}

TEST(SimSinkTest, StreamingTriggersPrefetcherOnXeon) {
  SimSink Sink(xeonLike(), 1);
  Sink.setDomain(CostDomain::Application);
  for (uintptr_t Addr = 0; Addr < 1024 * 1024; Addr += 64)
    Sink.store(Addr, 8);
  DomainEvents E = Sink.totalEvents();
  EXPECT_GT(E.PrefetchesIssued, 1000u);
  EXPECT_GT(E.PrefetchesUseful, 1000u);
  // Prefetching converts most stream misses into hits.
  EXPECT_LT(E.L2Misses, 1024u * 1024 / 64 / 2);
}

TEST(SimSinkTest, NoPrefetcherOnNiagara) {
  SimSink Sink(niagaraLike(), 1);
  Sink.setDomain(CostDomain::Application);
  for (uintptr_t Addr = 0; Addr < 1024 * 1024; Addr += 64)
    Sink.store(Addr, 8);
  DomainEvents E = Sink.totalEvents();
  EXPECT_EQ(E.PrefetchesIssued, 0u);
  // Every line misses in L2 (compulsory).
  EXPECT_EQ(E.L2Misses, 1024u * 1024 / 64);
}

TEST(SimSinkTest, DirtyEvictionsBecomeWritebacks) {
  SimSink Sink(xeonLike(), 8); // 2 MB effective L2
  Sink.setDomain(CostDomain::Application);
  // Write 8 MB: everything is dirtied and then evicted.
  for (uintptr_t Addr = 0; Addr < 8 * 1024 * 1024; Addr += 64)
    Sink.store(Addr, 8);
  DomainEvents E = Sink.totalEvents();
  EXPECT_GT(E.Writebacks, 8u * 1024 * 1024 / 64 / 2);
}

TEST(SimSinkTest, LargePagesCutTlbMisses) {
  Platform P = xeonLike();
  SimSink Small(P, 1, /*LargePages=*/false);
  SimSink Large(P, 1, /*LargePages=*/true);
  Small.setDomain(CostDomain::Application);
  Large.setDomain(CostDomain::Application);
  // Touch 16 MB sparsely: every page once.
  for (uintptr_t Addr = 0; Addr < 16 * 1024 * 1024; Addr += 4096) {
    Small.load(Addr, 8);
    Large.load(Addr, 8);
  }
  EXPECT_GT(Small.totalEvents().TlbMisses,
            10 * Large.totalEvents().TlbMisses);
}

TEST(SimSinkTest, ResetCountersKeepsCachesWarm) {
  SimSink Sink(xeonLike(), 1);
  Sink.setDomain(CostDomain::Application);
  Sink.load(0x9000, 8);
  Sink.resetCounters();
  EXPECT_EQ(Sink.totalEvents().LineAccesses, 0u);
  Sink.load(0x9000, 8); // still resident: hit
  EXPECT_EQ(Sink.totalEvents().L1DMisses, 0u);
}
