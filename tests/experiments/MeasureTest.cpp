//===- tests/experiments/MeasureTest.cpp - Harness unit tests -------------===//

#include "experiments/Measure.h"
#include "trace/TraceRecorder.h"
#include "trace/TraceReplayer.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace ddm;

namespace {

SimulationOptions tinyOptions() {
  SimulationOptions Options;
  Options.Scale = 0.05;
  Options.WarmupTx = 1;
  Options.MeasureTx = 2;
  Options.Seed = 5;
  return Options;
}

void expectSameEvents(const DomainEvents &A, const DomainEvents &B) {
  EXPECT_EQ(A.Instructions, B.Instructions);
  EXPECT_EQ(A.LineAccesses, B.LineAccesses);
  EXPECT_EQ(A.L1DMisses, B.L1DMisses);
  EXPECT_EQ(A.L2Hits, B.L2Hits);
  EXPECT_EQ(A.L2Misses, B.L2Misses);
  EXPECT_EQ(A.TlbMisses, B.TlbMisses);
  EXPECT_EQ(A.Writebacks, B.Writebacks);
  EXPECT_EQ(A.PrefetchesIssued, B.PrefetchesIssued);
  EXPECT_EQ(A.PrefetchesUseful, B.PrefetchesUseful);
}

/// A trace file private to the running test (ctest runs tests as
/// concurrent processes), removed when the test ends.
struct ScratchTrace {
  std::string Path = testing::TempDir() + "ddm_measure_" +
                     testing::UnitTest::GetInstance()->current_test_info()->name() +
                     TraceFileSuffix;
  ~ScratchTrace() { std::remove(Path.c_str()); }
};

/// Runs \p Run once recording into a trace, then once replaying it with a
/// different seed and scale: replay must override both from the trace's
/// metadata. Returns {recorded, replayed}.
template <typename Result, typename RunFn>
std::pair<Result, Result> recordThenReplay(const WorkloadSpec &W, RunFn Run) {
  ScratchTrace Trace;
  SimulationOptions Options = tinyOptions();
  TraceRecorder Recorder;
  EXPECT_TRUE(Recorder.open(Trace.Path,
                            TraceMeta{W.Name, Options.Scale, Options.Seed})
                  .ok());
  Options.RecordSink = &Recorder;
  Result Recorded = Run(Options);
  EXPECT_TRUE(Recorder.finish().ok());

  TraceReplayer Replayer;
  EXPECT_TRUE(Replayer.open(Trace.Path).ok());
  SimulationOptions ReplayOptions = tinyOptions();
  ReplayOptions.Seed = 64; // 64 % 64 == 0: the process id comes from the trace.
  ReplayOptions.Scale = 1.0;
  ReplayOptions.ReplaySource = &Replayer;
  return {Recorded, Run(ReplayOptions)};
}

} // namespace

TEST(MeasureTest, PercentOver) {
  EXPECT_NEAR(percentOver(110.0, 100.0), 10.0, 1e-9);
  EXPECT_NEAR(percentOver(75.0, 100.0), -25.0, 1e-9);
  EXPECT_DOUBLE_EQ(percentOver(5.0, 0.0), 0.0); // guarded division
}

TEST(MeasureTest, SimulateIsDeterministic) {
  WorkloadSpec W = phpBb();
  Platform P = xeonLike();
  SimPoint A = simulate(W, AllocatorKind::DDmalloc, P, 4, tinyOptions());
  SimPoint B = simulate(W, AllocatorKind::DDmalloc, P, 4, tinyOptions());
  EXPECT_DOUBLE_EQ(A.Perf.TxPerSec, B.Perf.TxPerSec);
  EXPECT_DOUBLE_EQ(A.Perf.CyclesPerTx, B.Perf.CyclesPerTx);
  EXPECT_EQ(A.Events.total().L2Misses, B.Events.total().L2Misses);
}

TEST(MeasureTest, SeedChangesTheRunButNotTheShape) {
  WorkloadSpec W = phpBb();
  Platform P = xeonLike();
  SimulationOptions O1 = tinyOptions(), O2 = tinyOptions();
  O2.Seed = 6;
  SimPoint A = simulate(W, AllocatorKind::DDmalloc, P, 4, O1);
  SimPoint B = simulate(W, AllocatorKind::DDmalloc, P, 4, O2);
  EXPECT_NE(A.Perf.CyclesPerTx, B.Perf.CyclesPerTx);
  // Same order of magnitude: the workload model, not the seed, dominates.
  EXPECT_NEAR(A.Perf.CyclesPerTx / B.Perf.CyclesPerTx, 1.0, 0.2);
}

TEST(MeasureTest, EventsAreAveragedPerTransaction) {
  WorkloadSpec W = phpBb();
  Platform P = xeonLike();
  SimulationOptions Short = tinyOptions();
  SimulationOptions Long = tinyOptions();
  Long.MeasureTx = 6;
  SimPoint A = simulate(W, AllocatorKind::Region, P, 1, Short);
  SimPoint B = simulate(W, AllocatorKind::Region, P, 1, Long);
  // Per-transaction instruction counts are independent of how many
  // transactions were measured (within noise).
  EXPECT_NEAR(A.Perf.InstructionsPerTx / B.Perf.InstructionsPerTx, 1.0, 0.05);
}

TEST(MeasureTest, MmShareRespondsToTheAllocator) {
  WorkloadSpec W = phpBb();
  Platform P = xeonLike();
  SimPoint Default = simulate(W, AllocatorKind::Default, P, 1, tinyOptions());
  SimPoint Region = simulate(W, AllocatorKind::Region, P, 1, tinyOptions());
  double DefaultShare = Default.Perf.MmCyclesPerTx / Default.Perf.CyclesPerTx;
  double RegionShare = Region.Perf.MmCyclesPerTx / Region.Perf.CyclesPerTx;
  EXPECT_GT(DefaultShare, 3.0 * RegionShare);
}

TEST(MeasureTest, LargePageOptionReachesTheTlbModel) {
  WorkloadSpec W = phpBb();
  Platform P = xeonLike();
  SimulationOptions Options = tinyOptions();
  SimPoint Small = simulate(W, AllocatorKind::DDmalloc, P, 1, Options);
  Options.LargePages = true;
  SimPoint Large = simulate(W, AllocatorKind::DDmalloc, P, 1, Options);
  EXPECT_LT(Large.Events.total().TlbMisses, Small.Events.total().TlbMisses);
}

TEST(MeasureTest, RecordedRunReplaysToIdenticalEvents) {
  const WorkloadSpec W = phpBb();
  RuntimeConfig Config;
  Config.Kind = AllocatorKind::DDmalloc;
  auto [Recorded, Replayed] = recordThenReplay<SimPoint>(
      W, [&](const SimulationOptions &Options) {
        return simulateRuntime(W, Config, xeonLike(), 4, Options);
      });
  expectSameEvents(Recorded.Events.App, Replayed.Events.App);
  expectSameEvents(Recorded.Events.Mm, Replayed.Events.Mm);
  EXPECT_EQ(Recorded.Perf.CyclesPerTx, Replayed.Perf.CyclesPerTx);
  EXPECT_EQ(Recorded.MeanConsumptionBytes, Replayed.MeanConsumptionBytes);
}

TEST(MeasureTest, RecordedServiceProfileReplaysToIdenticalEvents) {
  const WorkloadSpec W = phpBb();
  RuntimeConfig Config;
  Config.Kind = AllocatorKind::Region;
  auto [Recorded, Replayed] = recordThenReplay<ServiceProfile>(
      W, [&](const SimulationOptions &Options) {
        return profileService(W, Config, xeonLike(), 4, 3, Options);
      });
  expectSameEvents(Recorded.MeanEvents.App, Replayed.MeanEvents.App);
  expectSameEvents(Recorded.MeanEvents.Mm, Replayed.MeanEvents.Mm);
  EXPECT_EQ(Recorded.RelativeWeights, Replayed.RelativeWeights);
}
