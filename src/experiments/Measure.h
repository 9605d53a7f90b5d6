//===- experiments/Measure.h - Shared experiment harness -------*- C++ -*-===//
///
/// \file
/// The measurement pipeline every table/figure reproduction uses. Each
/// entry point below is a thin wrapper around one simulation session
/// (Measure.cpp) with three steps:
///
///  1. Set up: map the SimulationOptions into the RuntimeConfig, build the
///     machine model (SimSink), the optional buddy page backend, the
///     optional access-sampler tee and the TransactionRuntime — in that
///     order, since canonical address bases are handed out in mapRegion
///     order — then run the warm-up transactions (caches fill, the heap
///     reaches steady state) and flush.
///  2. Run windows: reset the counters, run measured transactions, flush;
///     sampler snapshots are taken at window boundaries.
///  3. Finish: the cold give-back, the per-transaction event averages,
///     evaluatePerformance (cycles, throughput, bus utilization) and the
///     memory, page-economy, sampler and adaptive fields of SimPoint.
///
/// One representative runtime process is simulated; the performance model
/// scales to the requested core count analytically (see sim/Performance.h
/// and DESIGN.md).
///
//===----------------------------------------------------------------------===//

#ifndef DDM_EXPERIMENTS_MEASURE_H
#define DDM_EXPERIMENTS_MEASURE_H

#include "page/PageBackend.h"
#include "runtime/TransactionRuntime.h"
#include "sampling/AccessSampler.h"
#include "sim/Performance.h"
#include "sim/Platform.h"
#include "sim/SimSink.h"
#include "workload/WorkloadSpec.h"

#include <optional>
#include <string>

namespace ddm {

class TraceReplayer;

/// Which page economy backs the allocator's heap spans in a simulation.
enum class PageBackendKind {
  Arena, ///< Legacy private mmap arenas (the default).
  Buddy, ///< One BuddyPageBackend shared by the run's allocator.
};

/// Parses a --backend value ("arena" or "buddy"); std::nullopt if unknown.
std::optional<PageBackendKind> pageBackendKindFromName(const std::string &Name);

/// Knobs of one simulation run.
struct SimulationOptions {
  unsigned WarmupTx = 2;
  unsigned MeasureTx = 4;
  /// Workload scale; 1.0 replays the paper's full per-transaction counts.
  double Scale = 1.0;
  uint64_t Seed = 0x5eed;
  bool LargePages = false;

  /// Page economy behind the allocator (--backend buddy). With Buddy, a
  /// fresh BuddyPageBackend is created per simulateRuntime call and
  /// attached to AllocOptions.Backend; its end-of-run stats land in
  /// SimPoint::PageStats. Kinds without backend support keep their
  /// private arenas and the backend sits idle (stats all zero).
  PageBackendKind Backend = PageBackendKind::Arena;
  /// Reservation of the buddy backend (ignored under Arena).
  size_t BackendReserveBytes = 1ull * 1024 * 1024 * 1024;

  /// When set, every executed event is teed into this sink (trace
  /// capture, src/trace). Warm-up transactions are recorded too: a
  /// replayed run must relive the whole process history.
  TraceSink *RecordSink = nullptr;

  /// When set, transactions are replayed from this trace instead of being
  /// generated; Seed and Scale are overridden by the trace's metadata so
  /// the auxiliary random streams match the recorded run bit for bit. The
  /// trace must hold at least WarmupTx + MeasureTx transactions.
  TraceReplayer *ReplaySource = nullptr;

  /// Interpose the DAMON-style access sampler (src/sampling) between the
  /// runtime and the machine model. The sampler's modeled cost is charged
  /// to the MemoryManagement domain, so sampled runs are honestly a
  /// little slower — the overhead bench_adaptive gates at <= 5%.
  bool Sampling = false;
  SamplerOptions Sampler;

  /// With a buddy backend: after the measured phase, model an madvise of
  /// every free-but-resident page (BuddyPageBackend::adviseOut). When
  /// sampling is on, the give-back only fires if the sampler actually
  /// observed cold regions — the monitor gating the reclaim, as in
  /// DAMON_RECLAIM.
  bool ColdGiveBack = false;

  /// Heap hardening (--harden): when Enabled, every allocator the run
  /// creates is wrapped in the red-zone/quarantine HardenedAllocator
  /// (src/hardening). Applied on top of RuntimeConfig::AllocOptions
  /// unless those already request hardening explicitly.
  HardeningConfig Hardening;
};

/// The outputs of one (workload, allocator, platform, cores) point.
struct SimPoint {
  PerfResult Perf;
  PerTxEvents Events;
  /// Mean allocator memory consumption at transaction end (Figure 9).
  double MeanConsumptionBytes = 0;
  RuntimeMetrics Metrics;
  /// Page-economy counters at run end. Present when the run used a buddy
  /// backend (SimulationOptions::Backend) or a slab allocator (whose
  /// private central has a buddy inside).
  std::optional<PageBackendStats> PageStats;

  /// \name Sampler observability (filled when Options.Sampling).
  /// @{
  /// Aggregate snapshots at the warmup/measure phase boundaries; empty
  /// without sampling.
  std::vector<SamplerSnapshot> SamplerPhases;
  /// The final region table (heat, age, size-class histograms).
  std::vector<SamplerRegion> SamplerRegions;
  /// @}

  /// Modeled RSS at run end (resident bytes of the buddy backend, after
  /// any cold give-back) and the bytes the give-back dropped. Zero when
  /// the run had no buddy backend.
  uint64_t RssBytes = 0;
  uint64_t AdvisedOutBytes = 0;

  /// Adaptive-allocator telemetry: placement switches performed and the
  /// strategy in effect at run end. Zero/empty for static allocators.
  uint64_t StrategySwitches = 0;
  std::string FinalStrategy;
};

/// Runs the pipeline with full control over the runtime configuration
/// (Ruby mode, restart periods, allocator options).
SimPoint simulateRuntime(const WorkloadSpec &Workload,
                         const RuntimeConfig &Runtime, const Platform &P,
                         unsigned ActiveCores, const SimulationOptions &Options);

/// Convenience wrapper for the PHP study: bulk-free runtime with default
/// allocator options.
SimPoint simulate(const WorkloadSpec &Workload, AllocatorKind Kind,
                  const Platform &P, unsigned ActiveCores,
                  const SimulationOptions &Options);

/// Runs several workload phases through ONE runtime process: warm-up on
/// the first phase, then Options.MeasureTx measured transactions per
/// phase with TransactionRuntime::setWorkload() at every boundary — the
/// request-mix shifts a long-lived server worker sees. Counters are
/// averaged over all measured transactions; with Options.Sampling one
/// snapshot per phase (named after the phase) lands in SamplerPhases.
/// Trace replay is not supported for phase runs.
SimPoint simulatePhases(const std::vector<WorkloadSpec> &Phases,
                        const RuntimeConfig &RuntimeCfg, const Platform &P,
                        unsigned ActiveCores, const SimulationOptions &Options);

/// Per-transaction service-demand profile for the serving layer
/// (src/server): the event averages of the measured transactions plus
/// each transaction's relative cycle demand around that mean — the
/// variability that becomes per-request service-time spread.
struct ServiceProfile {
  PerTxEvents MeanEvents;
  /// One entry per measured transaction: its single-core cycles divided
  /// by the mean over all measured transactions (mean 1.0).
  std::vector<double> RelativeWeights;
  /// With Options.Sampling: one end-of-profile sampler snapshot, tagged
  /// with the workload's name (the serving layer's per-phase view).
  std::vector<SamplerSnapshot> SamplerPhases;
};

/// Runs the pipeline like simulateRuntime() but snapshots the event
/// counters after every measured transaction (\p SampleTx of them).
ServiceProfile profileService(const WorkloadSpec &Workload,
                              const RuntimeConfig &Runtime, const Platform &P,
                              unsigned ActiveCores, unsigned SampleTx,
                              const SimulationOptions &Options);

/// Percentage difference of \p Value versus \p Baseline (+4.0 means 4%
/// faster/larger).
double percentOver(double Value, double Baseline);

} // namespace ddm

#endif // DDM_EXPERIMENTS_MEASURE_H
