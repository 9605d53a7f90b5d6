//===- tests/experiments/MeasureGoldenTest.cpp - Pinned pipeline outputs --===//
///
/// \file
/// Pins every output the measurement pipeline fills in — all event
/// counters of both domains, cycles/tx, memory consumption, RSS and
/// give-back bytes, page-economy counters, sampler snapshots, adaptive
/// telemetry and the service profile's relative weights — for one run of
/// each entry point and each optional stage (buddy backend, sampler tee,
/// cold give-back, hardening, a slab's private page economy, phases).
/// The expected strings were captured from the implementation before the
/// entry points shared one session; any drift in set-up order, window
/// boundaries or finishing shows up here as a changed number.
///
//===----------------------------------------------------------------------===//

#include "experiments/Measure.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

using namespace ddm;

namespace {

std::string num(double V) {
  char Buffer[40];
  std::snprintf(Buffer, sizeof(Buffer), "%.17g", V);
  return Buffer;
}

std::string render(const DomainEvents &E) {
  return std::to_string(E.Instructions) + " " + std::to_string(E.LineAccesses) +
         " " + std::to_string(E.L1DMisses) + " " + std::to_string(E.L2Hits) +
         " " + std::to_string(E.L2Misses) + " " + std::to_string(E.TlbMisses) +
         " " + std::to_string(E.Writebacks) + " " +
         std::to_string(E.PrefetchesIssued) + " " +
         std::to_string(E.PrefetchesUseful);
}

std::string render(const PerTxEvents &E) {
  return "app " + render(E.App) + "\nmm " + render(E.Mm) + "\ncode " +
         num(E.AppCodeFootprintBytes) + " " + num(E.AllocCodeFootprintBytes) +
         "\n";
}

std::string render(const std::vector<SamplerSnapshot> &Phases) {
  std::string Out;
  for (const SamplerSnapshot &S : Phases)
    Out += "sampler " + S.Phase + " " + std::to_string(S.Events) + " " +
           std::to_string(S.Sampled) + " " + std::to_string(S.Windows) + " " +
           std::to_string(S.Splits) + " " + std::to_string(S.Merges) + " " +
           std::to_string(S.Regions) + " " + std::to_string(S.MonitoredBytes) +
           " " + std::to_string(S.HotBytes) + " " +
           std::to_string(S.ColdBytes) + " " +
           std::to_string(S.MaxRegionAge) + "\n";
  return Out;
}

std::string render(const SimPoint &Pt) {
  std::string Out = render(Pt.Events);
  Out += "cycles " + num(Pt.Perf.CyclesPerTx) + "\n";
  Out += "consumption " + num(Pt.MeanConsumptionBytes) + "\n";
  Out += "rss " + std::to_string(Pt.RssBytes) + " advised " +
         std::to_string(Pt.AdvisedOutBytes) + "\n";
  if (Pt.PageStats) {
    const PageBackendStats &S = *Pt.PageStats;
    Out += "pages " + std::to_string(S.PagesAcquired) + " " +
           std::to_string(S.PagesReclaimed) + " " +
           std::to_string(S.PagesLive) + " " +
           std::to_string(S.PeakPagesLive) + " " +
           std::to_string(S.FreePages) + " " +
           std::to_string(S.LargestFreeRunPages) + " " +
           std::to_string(S.Splits) + " " + std::to_string(S.Coalesces) +
           " " + std::to_string(S.ResidentPages) + " " +
           std::to_string(S.PeakResidentPages) + " " +
           std::to_string(S.AdvisedOutPages) + " " +
           std::to_string(S.PageBytes) + "\n";
  }
  Out += render(Pt.SamplerPhases);
  Out += "regions " + std::to_string(Pt.SamplerRegions.size()) + "\n";
  Out += "adaptive " + std::to_string(Pt.StrategySwitches) + " '" +
         Pt.FinalStrategy + "'\n";
  return Out;
}

std::string render(const ServiceProfile &Profile) {
  std::string Out = render(Profile.MeanEvents) + "weights";
  for (double W : Profile.RelativeWeights)
    Out += " " + num(W);
  return Out + "\n" + render(Profile.SamplerPhases);
}

SimulationOptions tinyOptions() {
  SimulationOptions Options;
  Options.Scale = 0.05;
  Options.WarmupTx = 1;
  Options.MeasureTx = 2;
  Options.Seed = 5;
  return Options;
}

void enableSampling(SimulationOptions &Options) {
  Options.Sampling = true;
  Options.Sampler.SampleInterval = 8;
  Options.Sampler.WindowEvents = 512;
}

/// Small heap spans so a buddy backend sees real traffic.
RuntimeConfig smallHeapConfig(AllocatorKind Kind) {
  RuntimeConfig Config;
  Config.Kind = Kind;
  Config.UseBulkFree = true;
  Config.AllocOptions.HeapReserveBytes = 32ull * 1024 * 1024;
  Config.AllocOptions.RegionChunkBytes = 8ull * 1024 * 1024;
  return Config;
}

/// Two phases whose allocation behavior differs enough for the adaptive
/// allocator's placement vote to see a change.
std::vector<WorkloadSpec> twoPhases() {
  WorkloadSpec Scoped;
  Scoped.Name = "scoped";
  Scoped.MallocCalls = 14000;
  Scoped.FreeCalls = 1100;
  Scoped.ReallocCalls = 140;
  Scoped.MeanAllocBytes = 72.0;
  Scoped.MeanLifetimeSteps = 40.0;
  Scoped.AppStateBytes = 1ull * 1024 * 1024;
  WorkloadSpec Churn = Scoped;
  Churn.Name = "churn";
  Churn.MallocCalls = 40000;
  Churn.FreeCalls = 39000;
  Churn.MeanAllocBytes = 128.0;
  Churn.MeanLifetimeSteps = 4.0;
  return {Scoped, Churn};
}

} // namespace

TEST(MeasureGoldenTest, SimulateDDmallocOnArenas) {
  SimPoint Pt = simulate(phpBb(), AllocatorKind::DDmalloc, xeonLike(), 4,
                         tinyOptions());
  EXPECT_EQ(render(Pt), R"(app 1904857 11128 3282 1568 1714 210 0 15 14
mm 58275 16799 462 419 44 6 0 9 8
code 98304 2048
cycles 1693596.8908955269
consumption 860704
rss 0 advised 0
regions 0
adaptive 0 ''
)");
}

TEST(MeasureGoldenTest, HardenedSampledRegionOnBuddyWithColdGiveBack) {
  SimulationOptions Options = tinyOptions();
  Options.MeasureTx = 4;
  Options.Backend = PageBackendKind::Buddy;
  Options.BackendReserveBytes = 256ull * 1024 * 1024;
  Options.ColdGiveBack = true;
  Options.Hardening.Enabled = true;
  enableSampling(Options);
  SimPoint Pt = simulateRuntime(phpBb(), smallHeapConfig(AllocatorKind::Region),
                                xeonLike(), 4, Options);
  EXPECT_EQ(render(Pt), R"(app 1904885 11841 6579 5246 1333 271 0 0 12
mm 30396 4794 0 0 0 0 0 0 0
code 98304 512
cycles 1625939.4078895845
consumption 229478.39999999999
rss 8388608 advised 0
pages 2048 0 2048 2048 63488 32768 5 0 2048 2048 0 4096
sampler warmup 14929 1866 3 6 0 10 11599872 2162688 0 3
sampler measure 74672 9334 18 12 5 11 11599872 196608 8126464 18
regions 11
adaptive 0 ''
)");
}

TEST(MeasureGoldenTest, SlabReportsItsPrivatePageEconomy) {
  RuntimeConfig Config = smallHeapConfig(AllocatorKind::Slab);
  Config.UseBulkFree = false;
  SimPoint Pt =
      simulateRuntime(phpBb(), Config, xeonLike(), 1, tinyOptions());
  EXPECT_EQ(render(Pt), R"(app 1904857 11115 3370 1677 1693 216 0 6 16
mm 49066 14717 176 139 37 9 0 2 1
code 98304 3072
cycles 1650195.2378741121
consumption 167936
rss 0 advised 0
pages 45 0 45 45 8147 4096 46 0 0 0 0 4096
regions 0
adaptive 0 ''
)");
}

TEST(MeasureGoldenTest, AdaptivePhasesWithSamplingOnBuddy) {
  SimulationOptions Options = tinyOptions();
  Options.Scale = 0.2;
  Options.MeasureTx = 3;
  Options.Backend = PageBackendKind::Buddy;
  Options.BackendReserveBytes = 256ull * 1024 * 1024;
  Options.ColdGiveBack = true;
  enableSampling(Options);
  // A region chunk larger than the other heaps: switching away from it
  // leaves free resident pages for the give-back to drop.
  RuntimeConfig Config = smallHeapConfig(AllocatorKind::Adaptive);
  Config.AllocOptions.HeapReserveBytes = 16ull * 1024 * 1024;
  Config.AllocOptions.RegionChunkBytes = 64ull * 1024 * 1024;
  SimPoint Pt = simulatePhases(twoPhases(), Config, xeonLike(), 1, Options);
  EXPECT_EQ(render(Pt), R"(app 1743117 31126 14125 12903 1223 268 0 2909 2917
mm 138596 17859 474 388 86 20 0 220 162
code 98304 2560
cycles 1655154.9150868542
consumption 518436.57142857142
rss 16777216 advised 50331648
pages 24576 20480 4096 16384 61440 32768 10 6 4096 16384 12288 4096
sampler warmup 21539 2692 5 7 0 11 17891328 2162688 0 5
sampler scoped 78088 9761 19 20 14 12 86114304 589824 17891328 19
sampler churn 264328 33041 64 52 50 12 106168320 262144 34406400 64
regions 12
adaptive 2 'slab'
)");
}

TEST(MeasureGoldenTest, SampledGiveBackWaitsForColdBytes) {
  // The sampler gates the cold give-back: a sampled run whose monitor
  // never ages a region into coldness advises nothing out, while its
  // unsampled twin (an unconditional give-back) drops the free resident
  // pages the adaptive switch away from the region chunk left behind.
  SimulationOptions Options = tinyOptions();
  Options.Scale = 0.2;
  Options.MeasureTx = 3;
  Options.Backend = PageBackendKind::Buddy;
  Options.BackendReserveBytes = 256ull * 1024 * 1024;
  Options.ColdGiveBack = true;
  RuntimeConfig Config = smallHeapConfig(AllocatorKind::Adaptive);
  Config.AllocOptions.HeapReserveBytes = 16ull * 1024 * 1024;
  Config.AllocOptions.RegionChunkBytes = 64ull * 1024 * 1024;
  SimPoint Unsampled =
      simulatePhases(twoPhases(), Config, xeonLike(), 1, Options);
  enableSampling(Options);
  // No window ever folds, so no region ages long enough to count as cold.
  Options.Sampler.WindowEvents = std::numeric_limits<uint64_t>::max();
  SimPoint Sampled =
      simulatePhases(twoPhases(), Config, xeonLike(), 1, Options);

  ASSERT_FALSE(Sampled.SamplerPhases.empty());
  EXPECT_EQ(Sampled.SamplerPhases.back().ColdBytes, 0u);
  EXPECT_EQ(Sampled.AdvisedOutBytes, 0u);
  EXPECT_GT(Unsampled.AdvisedOutBytes, 0u);
  EXPECT_EQ("rss " + std::to_string(Unsampled.RssBytes) + " advised " +
                std::to_string(Unsampled.AdvisedOutBytes) + "\nrss " +
                std::to_string(Sampled.RssBytes) + " advised " +
                std::to_string(Sampled.AdvisedOutBytes),
            "rss 16777216 advised 50331648\nrss 67108864 advised 0");
}

TEST(MeasureGoldenTest, ServiceProfileWeightsAndSnapshot) {
  SimulationOptions Options = tinyOptions();
  enableSampling(Options);
  RuntimeConfig Config;
  Config.Kind = AllocatorKind::DDmalloc;
  ServiceProfile Profile =
      profileService(phpBb(), Config, xeonLike(), 4, 3, Options);
  EXPECT_EQ(render(Profile), R"(app 1904912 11160 3316 1787 1529 215 0 12 12
mm 78297 16755 463 427 35 7 0 7 6
code 98304 2048
weights 1.0386974467314489 0.99419303498349121 0.96710951828505998
sampler phpbb 107439 13429 26 18 10 11 271581184 196608 0 26
)");
}
