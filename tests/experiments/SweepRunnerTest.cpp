//===- tests/experiments/SweepRunnerTest.cpp - Parallel sweep contract ----===//
///
/// \file
/// SweepRunner's contract: results land in submission order regardless of
/// worker count, exceptions propagate, and — the property the benches
/// rely on — a simulation grid run with many workers produces counters
/// identical to the sequential run.
///
//===----------------------------------------------------------------------===//

#include "experiments/Measure.h"
#include "experiments/SweepRunner.h"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <vector>

using namespace ddm;

namespace {

TEST(SweepRunner, ResultsInSubmissionOrder) {
  std::vector<std::function<size_t()>> Tasks;
  for (size_t I = 0; I < 100; ++I)
    Tasks.push_back([I] { return I * I; });
  SweepRunner Runner(8);
  std::vector<size_t> Results = Runner.run(Tasks);
  ASSERT_EQ(Results.size(), Tasks.size());
  for (size_t I = 0; I < Results.size(); ++I)
    EXPECT_EQ(Results[I], I * I);
}

TEST(SweepRunner, MoreWorkersThanTasks) {
  std::vector<std::function<int()>> Tasks = {[] { return 1; }, [] { return 2; },
                                             [] { return 3; }};
  SweepRunner Runner(16);
  std::vector<int> Results = Runner.run(Tasks);
  EXPECT_EQ(Results, (std::vector<int>{1, 2, 3}));
}

TEST(SweepRunner, EmptyTaskList) {
  SweepRunner Runner(4);
  std::vector<std::function<int()>> Tasks;
  EXPECT_TRUE(Runner.run(Tasks).empty());
}

TEST(SweepRunner, ZeroJobsMeansHardwareConcurrency) {
  SweepRunner Runner(0);
  EXPECT_EQ(Runner.jobs(), SweepRunner::defaultJobs());
  EXPECT_GE(Runner.jobs(), 1u);
}

// std::thread::hardware_concurrency() is allowed to return 0 ("not
// computable"); defaultJobs() must floor it so a Jobs=0 runner still has
// at least one worker and actually executes its grid instead of spinning
// up zero threads.
TEST(SweepRunner, HardwareConcurrencyZeroStillExecutesTheGrid) {
  ASSERT_GE(SweepRunner::defaultJobs(), 1u);
  SweepRunner Runner(0);
  std::vector<std::function<int()>> Tasks = {[] { return 11; },
                                             [] { return 22; }};
  EXPECT_EQ(Runner.run(Tasks), (std::vector<int>{11, 22}));
}

TEST(SweepRunner, FirstExceptionPropagates) {
  std::vector<std::function<int()>> Tasks;
  for (size_t I = 0; I < 24; ++I)
    Tasks.push_back([I]() -> int {
      if (I == 5)
        throw std::runtime_error("point 5 failed");
      return static_cast<int>(I);
    });
  SweepRunner Runner(4);
  EXPECT_THROW(Runner.run(Tasks), std::runtime_error);
  SweepRunner Inline(1);
  EXPECT_THROW(Inline.run(Tasks), std::runtime_error);
}

void expectSamePoint(const SimPoint &A, const SimPoint &B) {
  DomainEvents Ta = A.Events.total(), Tb = B.Events.total();
  EXPECT_EQ(Ta.Instructions, Tb.Instructions);
  EXPECT_EQ(Ta.LineAccesses, Tb.LineAccesses);
  EXPECT_EQ(Ta.L1DMisses, Tb.L1DMisses);
  EXPECT_EQ(Ta.L2Misses, Tb.L2Misses);
  EXPECT_EQ(Ta.TlbMisses, Tb.TlbMisses);
  EXPECT_EQ(Ta.Writebacks, Tb.Writebacks);
  EXPECT_EQ(Ta.PrefetchesIssued, Tb.PrefetchesIssued);
  EXPECT_EQ(A.Perf.TxPerSec, B.Perf.TxPerSec);
  EXPECT_EQ(A.MeanConsumptionBytes, B.MeanConsumptionBytes);
}

// The property every ported bench relies on: a grid of real simulation
// points produces bit-identical results for any worker count, and the
// parallel run matches plain sequential simulate() calls.
TEST(SweepRunner, SimulationGridDeterministicAcrossWorkerCounts) {
  SimulationOptions Options;
  Options.Scale = 0.05;
  Options.WarmupTx = 1;
  Options.MeasureTx = 1;

  Platform P = xeonLike();
  std::vector<WorkloadSpec> Workloads = phpWorkloads();
  Workloads.resize(2);
  const AllocatorKind Kinds[] = {AllocatorKind::Default,
                                 AllocatorKind::DDmalloc};

  std::vector<std::function<SimPoint()>> Tasks;
  for (const WorkloadSpec &W : Workloads)
    for (AllocatorKind Kind : Kinds)
      Tasks.push_back(
          [W, Kind, P, Options] { return simulate(W, Kind, P, 2, Options); });

  SweepRunner Sequential(1);
  std::vector<SimPoint> SeqPoints = Sequential.run(Tasks);
  SweepRunner Parallel(8);
  std::vector<SimPoint> ParPoints = Parallel.run(Tasks);

  ASSERT_EQ(SeqPoints.size(), Tasks.size());
  ASSERT_EQ(ParPoints.size(), Tasks.size());
  size_t Idx = 0;
  for (const WorkloadSpec &W : Workloads)
    for (AllocatorKind Kind : Kinds) {
      SimPoint Direct = simulate(W, Kind, P, 2, Options);
      expectSamePoint(SeqPoints[Idx], ParPoints[Idx]);
      expectSamePoint(SeqPoints[Idx], Direct);
      ++Idx;
    }
}

} // namespace
