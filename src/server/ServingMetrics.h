//===- server/ServingMetrics.h - Tail-latency accounting -------*- C++ -*-===//
///
/// \file
/// The outputs of one serving-simulation run: latency percentiles, queue
/// and drop accounting, and goodput versus offered load — the numbers a
/// web operator reads off a load test, computed over the discrete-event
/// run of server/ServingSimulator.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_SERVER_SERVINGMETRICS_H
#define DDM_SERVER_SERVINGMETRICS_H

#include "server/LatencyHistogram.h"
#include "support/Json.h"
#include "support/Stats.h"

#include <cstdint>

namespace ddm {

/// Aggregated results of one (allocator, platform, offered-load) serving
/// run. Latencies are recorded in microseconds; the *Ms helpers convert.
struct ServingMetrics {
  /// Long-run configured arrival rate (open loop) or the realized request
  /// rate (closed loop).
  double OfferedRps = 0.0;
  /// Completed requests per second of makespan.
  double GoodputRps = 0.0;
  /// First arrival to last completion.
  double MakespanSec = 0.0;

  uint64_t Offered = 0;
  uint64_t Completed = 0;
  uint64_t Dropped = 0;
  /// Requests that failed permanently (transaction OOM with no retry
  /// budget left, or open loop where clients never retry).
  uint64_t Failed = 0;
  /// Failed attempts that were re-submitted by their client; each
  /// re-submission counts as a new offer.
  uint64_t Retried = 0;
  /// Attempts still in flight (or queued) when the run ended; the closed
  /// loop stops at its completion target without draining.
  uint64_t Unfinished = 0;
  /// Attempts whose serving transaction aborted on detected heap
  /// corruption. Each such attempt is also counted as Retried or Failed
  /// (corruption is a failure mode, not an extra outcome), so this does
  /// not enter countersConsistent().
  uint64_t CorruptionAborts = 0;

  /// Worker restarts performed under the restart policy.
  uint64_t Restarts = 0;
  /// Total worker downtime spent restarting, seconds.
  double RestartDowntimeSec = 0.0;
  /// High-water mark of any single worker's modelled heap, bytes.
  uint64_t PeakWorkerHeapBytes = 0;

  /// End-to-end sojourn time (arrival -> completion), microseconds.
  LatencyHistogram LatencyUs;
  /// Queueing delay (arrival -> service start), microseconds.
  LatencyHistogram WaitUs;

  /// Admission-queue depth sampled at every arrival.
  RunningStat QueueDepthAtArrival;
  /// Time-averaged number of busy workers.
  double MeanBusyWorkers = 0.0;
  /// MeanBusyWorkers / pool size, in [0, 1].
  double Utilization = 0.0;

  double dropRate() const {
    return Offered ? static_cast<double>(Dropped) /
                         static_cast<double>(Offered)
                   : 0.0;
  }

  /// Every offered attempt must end in exactly one of these states; the
  /// chaos soak asserts this identity after every run.
  bool countersConsistent() const {
    return Offered == Completed + Retried + Failed + Dropped + Unfinished;
  }

  double percentileMs(double Fraction) const {
    return static_cast<double>(LatencyUs.percentile(Fraction)) / 1000.0;
  }
  double p50Ms() const { return percentileMs(0.50); }
  double p90Ms() const { return percentileMs(0.90); }
  double p99Ms() const { return percentileMs(0.99); }
  double p999Ms() const { return percentileMs(0.999); }
  double meanLatencyMs() const { return LatencyUs.mean() / 1000.0; }
  double meanWaitMs() const { return WaitUs.mean() / 1000.0; }
};

/// Writes the request and restart counters, "offered" through
/// "peak_worker_heap_bytes", as members of the object \p J has open. The
/// serving reports of loadtest and bench_chaos share this run of keys.
inline void writeServingCounters(JsonWriter &J, const ServingMetrics &M) {
  J.field("offered", M.Offered)
      .field("completed", M.Completed)
      .field("dropped", M.Dropped)
      .field("failed", M.Failed)
      .field("retried", M.Retried)
      .field("unfinished", M.Unfinished)
      .field("corruption_aborts", M.CorruptionAborts)
      .field("restarts", M.Restarts)
      .field("restart_downtime_sec", M.RestartDowntimeSec)
      .field("peak_worker_heap_bytes", M.PeakWorkerHeapBytes);
}

} // namespace ddm

#endif // DDM_SERVER_SERVINGMETRICS_H
