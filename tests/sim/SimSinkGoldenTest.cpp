//===- tests/sim/SimSinkGoldenTest.cpp - Pinned machine-model counters ----===//
///
/// \file
/// Golden counters for the machine model: one fixed workload, allocator
/// and seed driven through TransactionRuntime into SimSink on three
/// hierarchies (Xeon with its prefetcher, Niagara with 32 threads sharing
/// the L2, Xeon with large pages). Every DomainEvents field of both cost
/// domains is pinned, so any change to the simulated behaviour of the TLB,
/// the caches, the prefetcher or their composition fails here. The values
/// were captured from the timestamp-per-entry TLB and array-of-structs
/// cache that the O(1) structures replaced; they must never move.
///
//===----------------------------------------------------------------------===//

#include "runtime/TransactionRuntime.h"
#include "sim/SimSink.h"

#include <gtest/gtest.h>

using namespace ddm;

namespace {

/// Region allocation on sugarcrm: sequential bump allocation trains the
/// Xeon prefetcher, and the heap overflows Niagara's 96 KB L2 share, so
/// fills, evictions and writebacks all run.
void runFixedWorkload(SimSink &Sink) {
  RuntimeConfig Config;
  Config.Kind = AllocatorKind::Region;
  Config.UseBulkFree = true;
  Config.Scale = 0.3;
  Config.Seed = 0x601d;
  const WorkloadSpec *W = findWorkload("sugarcrm");
  ASSERT_NE(W, nullptr);
  TransactionRuntime Runtime(*W, Config, &Sink);
  for (int I = 0; I < 3; ++I)
    Runtime.executeTransaction();
  Sink.flush();
}

void expectEvents(const DomainEvents &Actual, const DomainEvents &Expected) {
  EXPECT_EQ(Actual.Instructions, Expected.Instructions);
  EXPECT_EQ(Actual.LineAccesses, Expected.LineAccesses);
  EXPECT_EQ(Actual.L1DMisses, Expected.L1DMisses);
  EXPECT_EQ(Actual.L2Hits, Expected.L2Hits);
  EXPECT_EQ(Actual.L2Misses, Expected.L2Misses);
  EXPECT_EQ(Actual.TlbMisses, Expected.TlbMisses);
  EXPECT_EQ(Actual.Writebacks, Expected.Writebacks);
  EXPECT_EQ(Actual.PrefetchesIssued, Expected.PrefetchesIssued);
  EXPECT_EQ(Actual.PrefetchesUseful, Expected.PrefetchesUseful);
}

/// Field order: Instructions, LineAccesses, L1DMisses, L2Hits, L2Misses,
/// TlbMisses, Writebacks, PrefetchesIssued, PrefetchesUseful.
DomainEvents events(uint64_t Instructions, uint64_t LineAccesses,
                    uint64_t L1DMisses, uint64_t L2Hits, uint64_t L2Misses,
                    uint64_t TlbMisses, uint64_t Writebacks,
                    uint64_t PrefetchesIssued, uint64_t PrefetchesUseful) {
  DomainEvents E;
  E.Instructions = Instructions;
  E.LineAccesses = LineAccesses;
  E.L1DMisses = L1DMisses;
  E.L2Hits = L2Hits;
  E.L2Misses = L2Misses;
  E.TlbMisses = TlbMisses;
  E.Writebacks = Writebacks;
  E.PrefetchesIssued = PrefetchesIssued;
  E.PrefetchesUseful = PrefetchesUseful;
  return E;
}

} // namespace

TEST(SimSinkGoldenTest, XeonWithPrefetcher) {
  SimSink Sink(xeonLike(), 4);
  runFixedWorkload(Sink);
  expectEvents(Sink.events(CostDomain::Application),
               events(98189826, 1112197, 438827, 409437, 29390, 23582, 147217,
                      195719, 195149));
  expectEvents(Sink.events(CostDomain::MemoryManagement),
               events(2044350, 513481, 2142, 2138, 4, 33, 1429, 2104, 2106));
}

TEST(SimSinkGoldenTest, NiagaraSharedL2) {
  SimSink Sink(niagaraLike(), 8);
  runFixedWorkload(Sink);
  expectEvents(Sink.events(CostDomain::Application),
               events(98189826, 1112197, 589169, 165297, 423872, 215128,
                      243904, 0, 0));
  expectEvents(Sink.events(CostDomain::MemoryManagement),
               events(2044350, 513481, 3920, 1774, 2146, 58, 1273, 0, 0));
}

TEST(SimSinkGoldenTest, XeonLargePages) {
  SimSink Sink(xeonLike(), 4, /*LargePages=*/true);
  runFixedWorkload(Sink);
  expectEvents(Sink.events(CostDomain::Application),
               events(98189826, 1112197, 438827, 409437, 29390, 6, 147217,
                      195719, 195149));
  expectEvents(Sink.events(CostDomain::MemoryManagement),
               events(2044350, 513481, 2142, 2138, 4, 1, 1429, 2104, 2106));
}
