//===- tests/sampling/SamplerDeterminismTest.cpp - Report determinism ----===//
///
/// \file
/// The sampler satellite of the determinism contract: everything the
/// monitor consumes is canonical (addresses, event counts), so the same
/// seed and workload produce a byte-identical region report no matter how
/// many sweep workers ran the grid. These tests run real simulations with
/// Sampling on at --jobs 1 and --jobs 4 and compare every field the
/// report carries.
///
//===----------------------------------------------------------------------===//

#include "experiments/Measure.h"
#include "experiments/SweepRunner.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

using namespace ddm;

namespace {

SimulationOptions sampledOptions() {
  SimulationOptions Options;
  Options.Scale = 0.05;
  Options.WarmupTx = 1;
  Options.MeasureTx = 2;
  Options.Sampling = true;
  Options.Sampler.SampleInterval = 8;
  Options.Sampler.WindowEvents = 512;
  return Options;
}

void expectSameRegions(const std::vector<SamplerRegion> &A,
                       const std::vector<SamplerRegion> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Start, B[I].Start) << "region " << I;
    EXPECT_EQ(A[I].End, B[I].End) << "region " << I;
    EXPECT_EQ(A[I].WindowSamples, B[I].WindowSamples) << "region " << I;
    EXPECT_EQ(A[I].Heat, B[I].Heat) << "region " << I; // Bitwise equal.
    EXPECT_EQ(A[I].AgeWindows, B[I].AgeWindows) << "region " << I;
    EXPECT_EQ(A[I].TotalSamples, B[I].TotalSamples) << "region " << I;
    for (unsigned C = 0; C < SamplerRegion::SizeClasses; ++C)
      EXPECT_EQ(A[I].WidthClassSamples[C], B[I].WidthClassSamples[C])
          << "region " << I << " class " << C;
  }
}

void expectSameSnapshots(const std::vector<SamplerSnapshot> &A,
                         const std::vector<SamplerSnapshot> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Phase, B[I].Phase);
    EXPECT_EQ(A[I].Events, B[I].Events);
    EXPECT_EQ(A[I].Sampled, B[I].Sampled);
    EXPECT_EQ(A[I].Windows, B[I].Windows);
    EXPECT_EQ(A[I].Splits, B[I].Splits);
    EXPECT_EQ(A[I].Merges, B[I].Merges);
    EXPECT_EQ(A[I].Regions, B[I].Regions);
    EXPECT_EQ(A[I].MonitoredBytes, B[I].MonitoredBytes);
    EXPECT_EQ(A[I].HotBytes, B[I].HotBytes);
    EXPECT_EQ(A[I].ColdBytes, B[I].ColdBytes);
    EXPECT_EQ(A[I].MaxRegionAge, B[I].MaxRegionAge);
  }
}

void expectSameReport(const SimPoint &A, const SimPoint &B) {
  expectSameRegions(A.SamplerRegions, B.SamplerRegions);
  expectSameSnapshots(A.SamplerPhases, B.SamplerPhases);
  EXPECT_EQ(A.Perf.CyclesPerTx, B.Perf.CyclesPerTx);
  EXPECT_EQ(A.Events.total().L2Misses, B.Events.total().L2Misses);
}

TEST(SamplerDeterminismTest, SampledRunFillsTheReport) {
  SimPoint Point = simulate(phpBb(), AllocatorKind::DDmalloc, xeonLike(), 1,
                            sampledOptions());
  ASSERT_EQ(Point.SamplerPhases.size(), 2u); // warmup + measure.
  EXPECT_EQ(Point.SamplerPhases[0].Phase, "warmup");
  EXPECT_EQ(Point.SamplerPhases[1].Phase, "measure");
  EXPECT_GT(Point.SamplerPhases[1].Events, Point.SamplerPhases[0].Events);
  EXPECT_GT(Point.SamplerPhases[1].Sampled, 0u);
  EXPECT_GT(Point.SamplerPhases[1].Windows, 0u);
  EXPECT_FALSE(Point.SamplerRegions.empty());
  // An unsampled run carries no report.
  SimulationOptions Plain = sampledOptions();
  Plain.Sampling = false;
  SimPoint Bare =
      simulate(phpBb(), AllocatorKind::DDmalloc, xeonLike(), 1, Plain);
  EXPECT_TRUE(Bare.SamplerPhases.empty());
  EXPECT_TRUE(Bare.SamplerRegions.empty());
}

// The ISSUE's satellite: same seed + same workload -> byte-identical
// region report at any --jobs.
TEST(SamplerDeterminismTest, RegionReportIdenticalAcrossJobCounts) {
  Platform P = xeonLike();
  SimulationOptions Options = sampledOptions();
  const AllocatorKind Kinds[] = {AllocatorKind::DDmalloc,
                                 AllocatorKind::Adaptive};
  WorkloadSpec W = phpBb();

  std::vector<std::function<SimPoint()>> Tasks;
  for (AllocatorKind Kind : Kinds)
    Tasks.push_back(
        [W, Kind, P, Options] { return simulate(W, Kind, P, 2, Options); });

  SweepRunner Sequential(1);
  std::vector<SimPoint> SeqPoints = Sequential.run(Tasks);
  SweepRunner Parallel(4);
  std::vector<SimPoint> ParPoints = Parallel.run(Tasks);

  ASSERT_EQ(SeqPoints.size(), Tasks.size());
  ASSERT_EQ(ParPoints.size(), Tasks.size());
  for (size_t I = 0; I < Tasks.size(); ++I) {
    SimPoint Direct = simulate(W, Kinds[I], P, 2, Options);
    expectSameReport(SeqPoints[I], ParPoints[I]);
    expectSameReport(SeqPoints[I], Direct);
    EXPECT_FALSE(SeqPoints[I].SamplerPhases.empty());
    EXPECT_FALSE(SeqPoints[I].SamplerRegions.empty());
  }
}

TEST(SamplerDeterminismTest, SeedChangesTheReport) {
  SimulationOptions A = sampledOptions();
  SimulationOptions B = sampledOptions();
  B.Seed = A.Seed + 1;
  SimPoint Pa = simulate(phpBb(), AllocatorKind::DDmalloc, xeonLike(), 1, A);
  SimPoint Pb = simulate(phpBb(), AllocatorKind::DDmalloc, xeonLike(), 1, B);
  // Different seeds shuffle the access stream; the sampled totals differ.
  EXPECT_NE(Pa.SamplerPhases.back().Events, Pb.SamplerPhases.back().Events);
}

} // namespace
