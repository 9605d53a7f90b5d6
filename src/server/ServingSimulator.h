//===- server/ServingSimulator.h - Requests over the allocator sim *-C++-*-===//
///
/// \file
/// Turns the per-transaction allocator simulator into a request-serving
/// simulation. Two halves:
///
///  - buildServiceTimeModel() runs the measurement pipeline
///    (TransactionRuntime + SimSink + Performance) once per workload and
///    distills it into a ServiceTimeModel: the contention-free mean
///    service time, a per-transaction relative-demand distribution, and a
///    slowdown curve indexed by the number of concurrently busy workers.
///    The slowdown curve comes from re-evaluating the performance model at
///    each concurrency level, so the bus-utilization fixed point — the
///    paper's 8-core saturation mechanism — is what stretches service
///    times under load;
///  - runServing() feeds LoadGenerator arrivals through a WorkerPool using
///    that model and aggregates ServingMetrics.
///
/// The approximation: each request's progress rate depends on the global
/// busy-worker count through its own workload/allocator slowdown curve
/// (concurrent requests are statistically identical, per the study's
/// independent-process setup), and partial-core occupancy on multithreaded
/// platforms is rounded up to whole cores.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_SERVER_SERVINGSIMULATOR_H
#define DDM_SERVER_SERVINGSIMULATOR_H

#include "core/AllocatorFactory.h"
#include "experiments/Measure.h"
#include "server/LoadGenerator.h"
#include "server/ServingMetrics.h"
#include "server/WorkerPool.h"
#include "sim/Platform.h"
#include "workload/WorkloadSpec.h"

#include <string>
#include <vector>

namespace ddm {

/// Per-request service times derived from the allocator simulator.
struct ServiceTimeModel {
  struct PerWorkload {
    std::string Name;
    /// Mean service time with one busy worker (no contention), seconds.
    double BaseServiceSec = 0.0;
    /// Multiplier on BaseServiceSec when w workers are busy; index w-1.
    /// Non-decreasing; Slowdown[0] == 1.
    std::vector<double> Slowdown;
    /// Per-transaction relative demand samples (mean 1.0) from the
    /// measured runtime; requests draw from these.
    std::vector<double> RelativeWeights;
  };

  std::vector<PerWorkload> Workloads;
  /// Pool size: ActiveCores x ThreadsPerCore of the platform.
  unsigned Workers = 1;
  std::string PlatformName;
  AllocatorKind Kind = AllocatorKind::DDmalloc;

  /// Whole-pool saturation throughput (requests/sec with every worker
  /// busy), weighting workloads by \p MixWeights.
  double capacityRps(const std::vector<double> &MixWeights) const;
  /// Capacity for the single-workload / uniform-mix case.
  double capacityRps() const;
};

/// Builds the model for \p Kind serving \p Mix on \p ActiveCores cores of
/// \p P. Runs one profiling simulation per workload (cost scales with
/// Options.MeasureTx, which is used as the per-transaction sample count).
ServiceTimeModel buildServiceTimeModel(const std::vector<WorkloadSpec> &Mix,
                                       AllocatorKind Kind, const Platform &P,
                                       unsigned ActiveCores,
                                       const SimulationOptions &Options);

/// Scheduler-side knobs of one serving run.
struct ServingConfig {
  LoadConfig Load;
  QueuePolicy Policy = QueuePolicy::Fifo;
  /// Bound on *waiting* requests; beyond it arrivals are dropped.
  size_t QueueCapacity = 1024;
  /// Open loop: requests offered. Closed loop: completions + permanent
  /// failures to collect.
  uint64_t DurationTx = 2000;

  /// Worker recycling (restart-every-N / restart-on-OOM), applied by the
  /// pool.
  WorkerRestartPolicy Restart;
  /// Closed loop: total attempts a client makes per request before giving
  /// up (1 = no retries). Failure is decided by the `worker_heap` fault
  /// site; with the injector disarmed no request ever fails.
  uint64_t MaxAttempts = 4;
  /// Closed loop: delay before attempt k+1, doubling per attempt
  /// (RetryBackoffSec * 2^(k-1)).
  double RetryBackoffSec = 0.05;
};

/// Runs one serving simulation and aggregates its metrics.
ServingMetrics runServing(const ServiceTimeModel &Model,
                          const ServingConfig &Config);

} // namespace ddm

#endif // DDM_SERVER_SERVINGSIMULATOR_H
