//===- tests/runtime/TransactionRuntimeTest.cpp - Runtime engine tests ----===//

#include "page/PageBackend.h"
#include "runtime/TransactionRuntime.h"
#include "sim/SimSink.h"

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <vector>

using namespace ddm;

namespace {

WorkloadSpec tinyWorkload() {
  WorkloadSpec W = phpBb();
  return W;
}

RuntimeConfig phpConfig(AllocatorKind Kind) {
  RuntimeConfig Config;
  Config.Kind = Kind;
  Config.UseBulkFree = true;
  Config.Scale = 0.05;
  return Config;
}

/// Records every announced region and counts the accesses that land in
/// the last one announced.
class RegionRecorder final : public AccessSink {
public:
  void load(uintptr_t Addr, uint32_t) override { note(Addr); }
  void store(uintptr_t Addr, uint32_t) override { note(Addr); }
  void instructions(uint64_t) override {}
  void mapRegion(const void *Base, size_t Size) override {
    LastBase = reinterpret_cast<uintptr_t>(Base);
    LastSize = Size;
  }

  uintptr_t LastBase = 0;
  size_t LastSize = 0;
  uint64_t AccessesInLast = 0;

private:
  void note(uintptr_t Addr) {
    if (Addr >= LastBase && Addr - LastBase < LastSize)
      ++AccessesInLast;
  }
};

/// Pages of [Base, Base + Size) the kernel reports resident (mincore).
size_t residentPages(const void *Base, size_t Size) {
  size_t Page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> Map((Size + Page - 1) / Page);
  EXPECT_EQ(mincore(const_cast<void *>(Base), Size, Map.data()), 0);
  size_t Resident = 0;
  for (unsigned char M : Map)
    Resident += M & 1;
  return Resident;
}

} // namespace

TEST(TransactionRuntimeTest, ExecutesTransactionsAndCounts) {
  TransactionRuntime Runtime(tinyWorkload(), phpConfig(AllocatorKind::DDmalloc));
  Runtime.executeTransaction();
  Runtime.executeTransaction();
  const RuntimeMetrics &M = Runtime.metrics();
  EXPECT_EQ(M.Transactions, 2u);
  EXPECT_GT(M.TotalTrace.Mallocs, 0u);
  EXPECT_GT(M.TotalTrace.WorkInstructions, 0u);
  EXPECT_EQ(M.ConsumptionBytes.count(), 2u);
}

TEST(TransactionRuntimeTest, PhpModeBulkFreesEveryTransaction) {
  TransactionRuntime Runtime(tinyWorkload(), phpConfig(AllocatorKind::DDmalloc));
  for (int I = 0; I < 3; ++I)
    Runtime.executeTransaction();
  const AllocatorStats &S = Runtime.allocator().stats();
  EXPECT_EQ(S.FreeAllCalls, 3u);
  EXPECT_EQ(S.UsableBytesLive, 0u);
}

TEST(TransactionRuntimeTest, PhpModeWorksWithEveryBulkFreeAllocator) {
  for (AllocatorKind Kind :
       {AllocatorKind::Default, AllocatorKind::Region, AllocatorKind::Obstack,
        AllocatorKind::DDmalloc}) {
    TransactionRuntime Runtime(tinyWorkload(), phpConfig(Kind));
    Runtime.executeTransaction();
    EXPECT_EQ(Runtime.metrics().Transactions, 1u) << allocatorKindName(Kind);
  }
}

TEST(TransactionRuntimeTest, RubyModeSweepsWithPerObjectFree) {
  RuntimeConfig Config = phpConfig(AllocatorKind::Glibc);
  Config.UseBulkFree = false;
  Config.LeakFraction = 0.0;
  TransactionRuntime Runtime(tinyWorkload(), Config);
  Runtime.executeTransaction();
  const AllocatorStats &S = Runtime.allocator().stats();
  EXPECT_EQ(S.FreeAllCalls, 0u);
  // Everything was freed per-object (trace frees + sweep).
  EXPECT_EQ(S.FreeCalls, S.MallocCalls);
  EXPECT_EQ(S.UsableBytesLive, 0u);
}

TEST(TransactionRuntimeTest, RubyModeLeaksConfiguredFraction) {
  RuntimeConfig Config = phpConfig(AllocatorKind::Glibc);
  Config.UseBulkFree = false;
  Config.LeakFraction = 0.5; // exaggerated for the test
  Config.Scale = 0.1;
  TransactionRuntime Runtime(tinyWorkload(), Config);
  Runtime.executeTransaction();
  const AllocatorStats &S = Runtime.allocator().stats();
  EXPECT_LT(S.FreeCalls, S.MallocCalls);
  EXPECT_GT(S.UsableBytesLive, 0u);
}

TEST(TransactionRuntimeTest, RubyModeRestartsOnSchedule) {
  RuntimeConfig Config = phpConfig(AllocatorKind::TCMalloc);
  Config.UseBulkFree = false;
  Config.RestartPeriodTx = 2;
  TransactionRuntime Runtime(tinyWorkload(), Config);
  for (int I = 0; I < 5; ++I)
    Runtime.executeTransaction();
  EXPECT_EQ(Runtime.metrics().Restarts, 2u);
  EXPECT_EQ(Runtime.metrics().RestartInstructions,
            2u * Config.RestartCostInstructions);
  // A fresh allocator after the restart: its stats restarted too.
  EXPECT_LT(Runtime.allocator().stats().MallocCalls,
            Runtime.metrics().TotalTrace.Mallocs);
}

TEST(TransactionRuntimeTest,
     RubyModeRegionRestartsOnABuddyBackendWithTinyObjects) {
  // Ruby mode with a restart after every transaction: each new region
  // heap reuses the buddy pages of the one before, and objects under 4
  // bytes carry no canary, so the previous process's free marks survive
  // under the new objects. Freeing them must not abort as a double free.
  RuntimeConfig Config = phpConfig(AllocatorKind::Region);
  Config.UseBulkFree = false;
  Config.LeakFraction = 0.0;
  Config.RestartPeriodTx = 1;
  Config.AllocOptions.RegionChunkBytes = 1024 * 1024;
  Config.AllocOptions.Backend = createBuddyBackend(16 * 1024 * 1024);
  TransactionRuntime Runtime(tinyWorkload(), Config);
  for (int Tx = 0; Tx < 3; ++Tx) {
    for (uint32_t Id = 0; Id < 30; ++Id)
      Runtime.onAlloc(Id, 1 + Id % 3);
    for (uint32_t Id = 0; Id < 30; Id += 2)
      Runtime.onFree(Id);
    EXPECT_EQ(Runtime.completeTransaction(TraceStats()), TxStatus::Ok);
  }
  EXPECT_EQ(Runtime.metrics().Restarts, 3u);
}

TEST(TransactionRuntimeTest, RubySweepSeesOnlyThisTransactionsObjects) {
  // Object records are kept from one transaction to the next. A replayed
  // transaction may leave id gaps (here ids 0-4 are never allocated in
  // the second one); the sweep must not mistake the first transaction's
  // records in those slots for live objects.
  RuntimeConfig Config = phpConfig(AllocatorKind::Glibc);
  Config.UseBulkFree = false;
  Config.LeakFraction = 0.0;
  TransactionRuntime Runtime(tinyWorkload(), Config);
  for (uint32_t Id = 0; Id < 5; ++Id)
    Runtime.onAlloc(Id, 16);
  ASSERT_EQ(Runtime.completeTransaction(TraceStats()), TxStatus::Ok);
  for (int I = 0; I < 5; ++I)
    Runtime.onWork(10);
  Runtime.onAlloc(5, 16);
  EXPECT_EQ(Runtime.objectAddress(2), nullptr);
  ASSERT_EQ(Runtime.completeTransaction(TraceStats()), TxStatus::Ok);
  const AllocatorStats &S = Runtime.allocator().stats();
  EXPECT_EQ(S.MallocCalls, 6u);
  EXPECT_EQ(S.FreeCalls, 6u);
  EXPECT_EQ(S.UsableBytesLive, 0u);
}

TEST(TransactionRuntimeTest, SinkSeesBothDomains) {
  Platform P = xeonLike();
  SimSink Sink(P, 1);
  TransactionRuntime Runtime(tinyWorkload(), phpConfig(AllocatorKind::Default),
                             &Sink);
  Runtime.executeTransaction();
  const DomainEvents &App = Sink.events(CostDomain::Application);
  const DomainEvents &Mm = Sink.events(CostDomain::MemoryManagement);
  EXPECT_GT(App.Instructions, 0u);
  EXPECT_GT(Mm.Instructions, 0u);
  EXPECT_GT(App.LineAccesses, 0u);
  EXPECT_GT(Mm.LineAccesses, 0u);
  // Application work dominates a web transaction.
  EXPECT_GT(App.Instructions, Mm.Instructions);
}

TEST(TransactionRuntimeTest, DeterministicAcrossRuns) {
  auto Run = [] {
    RuntimeConfig Config = phpConfig(AllocatorKind::DDmalloc);
    Config.Seed = 99;
    TransactionRuntime Runtime(tinyWorkload(), Config);
    Runtime.executeTransaction();
    Runtime.executeTransaction();
    return Runtime.metrics().TotalTrace.AllocatedBytes;
  };
  EXPECT_EQ(Run(), Run());
}

TEST(TransactionRuntimeTest, AllocatorCodeFootprintsOrdered) {
  // The L1I model's premise: defragmenting allocators carry more code.
  auto Footprint = [](AllocatorKind Kind) {
    RuntimeConfig Config;
    Config.Kind = Kind;
    Config.Scale = 0.01;
    Config.UseBulkFree = createAllocator(Kind)->supportsBulkFree();
    TransactionRuntime Runtime(phpBb(), Config);
    return Runtime.allocatorCodeFootprintBytes();
  };
  EXPECT_LT(Footprint(AllocatorKind::Region),
            Footprint(AllocatorKind::DDmalloc));
  EXPECT_LT(Footprint(AllocatorKind::DDmalloc),
            Footprint(AllocatorKind::Default));
}

TEST(TransactionRuntimeTest, StateAreaIsReservedNotFaultedIn) {
  // The state area is announced to the sink last, after the allocator's
  // regions. State touches hand the sink addresses inside it, but no byte
  // of it is ever written, so none of its pages becomes resident.
  RegionRecorder Sink;
  TransactionRuntime WithSink(tinyWorkload(),
                              phpConfig(AllocatorKind::DDmalloc), &Sink);
  const void *Base = reinterpret_cast<const void *>(Sink.LastBase);
  ASSERT_EQ(Base, WithSink.stateArea().base());
  ASSERT_EQ(Sink.LastSize, WithSink.stateArea().size());
  ASSERT_GE(Sink.LastSize, tinyWorkload().AppStateBytes);
  EXPECT_EQ(residentPages(Base, Sink.LastSize), 0u);
  WithSink.executeTransaction();
  ASSERT_GT(WithSink.metrics().TotalTrace.StateTouches, 0u);
  EXPECT_GT(Sink.AccessesInLast, 0u);
  EXPECT_EQ(residentPages(Base, Sink.LastSize), 0u);

  TransactionRuntime NoSink(tinyWorkload(),
                            phpConfig(AllocatorKind::DDmalloc));
  const AlignedArena &Area = NoSink.stateArea();
  EXPECT_EQ(residentPages(Area.base(), Area.size()), 0u);
  NoSink.executeTransaction();
  ASSERT_GT(NoSink.metrics().TotalTrace.StateTouches, 0u);
  EXPECT_EQ(residentPages(Area.base(), Area.size()), 0u);
}

TEST(TransactionRuntimeTest, ObjectTableIsReservedForTheStepCount) {
  // A generated transaction allocates once per step, so its ids stay below
  // the step count: the table reserved for it never grows, in either mode.
  for (bool BulkFree : {true, false}) {
    SCOPED_TRACE(BulkFree ? "PHP mode" : "Ruby mode");
    RuntimeConfig Config =
        phpConfig(BulkFree ? AllocatorKind::DDmalloc : AllocatorKind::Glibc);
    Config.UseBulkFree = BulkFree;
    TransactionRuntime Runtime(tinyWorkload(), Config);
    uint64_t Steps = transactionSteps(tinyWorkload(), Config.Scale);
    EXPECT_EQ(Runtime.objectTableCapacity(), Steps);
    for (int I = 0; I < 4; ++I)
      ASSERT_EQ(Runtime.executeTransaction(), TxStatus::Ok);
    EXPECT_EQ(Runtime.objectTableCapacity(), Steps);
    // A replayed trace may use larger ids; the table grows to hold them.
    uint32_t Beyond = static_cast<uint32_t>(Steps) + 10;
    Runtime.onAlloc(Beyond, 16);
    EXPECT_GT(Runtime.objectTableCapacity(), Beyond);
    EXPECT_NE(Runtime.objectAddress(Beyond), nullptr);
    ASSERT_EQ(Runtime.completeTransaction(TraceStats()), TxStatus::Ok);
  }
}

TEST(TransactionRuntimeTest, FreedObjectsHaveNoAddress) {
  // A record is live exactly when it holds an address; every allocator
  // returns one for every size, zero included.
  for (AllocatorKind Kind : allAllocatorKinds()) {
    SCOPED_TRACE(allocatorTraits(Kind).Name);
    RuntimeConfig Config = phpConfig(Kind);
    Config.UseBulkFree = createAllocator(Kind)->supportsBulkFree();
    Config.LeakFraction = 0.0;
    TransactionRuntime Runtime(tinyWorkload(), Config);
    Runtime.onAlloc(0, 16);
    Runtime.onAlloc(1, 0);
    Runtime.onAlloc(2, 48);
    for (uint32_t Id = 0; Id < 3; ++Id)
      EXPECT_NE(Runtime.objectAddress(Id), nullptr) << "id " << Id;
    Runtime.onFree(1);
    EXPECT_EQ(Runtime.objectAddress(1), nullptr);
    Runtime.onRealloc(2, 48, 200);
    EXPECT_NE(Runtime.objectAddress(2), nullptr);
    Runtime.onFree(0);
    EXPECT_EQ(Runtime.objectAddress(0), nullptr);
    EXPECT_EQ(Runtime.objectAddress(3), nullptr); // never allocated
    ASSERT_EQ(Runtime.completeTransaction(TraceStats()), TxStatus::Ok);
    EXPECT_EQ(Runtime.objectAddress(2), nullptr); // swept at the end
    EXPECT_EQ(Runtime.allocator().stats().UsableBytesLive, 0u);
  }
}
