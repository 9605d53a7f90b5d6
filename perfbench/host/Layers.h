//===- perfbench/host/Layers.h - Per-layer measurements --------*- C++ -*-===//
///
/// \file
/// The benchmark's per-layer probes and the workload runners. Each probe
/// times one layer from outside on the inputs of the workload being run:
///
///  - generation: ddm::runTransaction into a NullExecutor;
///  - runtime: TransactionRuntime::executeTransaction with no sink, minus
///    generation;
///  - core: the allocation calls of generated transactions replayed
///    straight into each zoo allocator (ns per call);
///  - hardening / page: the same replay, hardened or on the buddy backend,
///    against the bare allocator;
///  - trace: TraceRecorder::event, openTraceInput batches, and
///    TraceReplayer::replayTransactionInto a NullExecutor;
///  - sim / sampling: a TimedSink in front of SimSink or AccessSampler;
///  - exec: runNative.
///
/// A workload's traced run measures its own layers inside its loop and
/// uses these probes only for the layers its job does not exercise, so
/// every traced run reports every per-layer metric.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Bench.h"

#include "core/AllocatorFactory.h"
#include "runtime/TransactionRuntime.h"
#include "workload/WorkloadSpec.h"

#include <optional>
#include <set>

namespace perfbench {

/// The inputs a probe works on, generated from the workload's seed.
struct LayerInputs {
  std::vector<ddm::WorkloadSpec> Specs;
  uint64_t Seed = 1;
  double Scale = WorkloadScale;
  std::string OutDir;
};

/// Layer groups a traced run can take from its own loop instead of a probe.
enum class Layer { GenRuntime, Core, HardenPage, Trace, Sim, Exec };

/// Runs the probe of every layer not in \p Measured and stores its metrics.
void runProbes(const LayerInputs &In, const std::set<Layer> &Measured,
               Result &R);

/// One allocation call of a generated transaction (EndTx closes it).
struct Op {
  enum Kind : uint8_t { Alloc, Free, Realloc, EndTx } K;
  uint32_t Id;
  uint64_t Size;
  uint64_t OldSize;
};

/// The allocation calls of \p TxPerSpec generated transactions per spec.
std::vector<Op> recordOps(const LayerInputs &In, unsigned TxPerSpec);

/// FNV-1a of the allocation calls of one generated transaction per spec,
/// in hex: the fingerprint of a run's inputs.
std::string inputDigest(const LayerInputs &In);

/// Replays \p Ops into a fresh allocator; frees each transaction's
/// leftovers with freeAll where the kind supports it, per object otherwise.
struct OpReplay {
  int64_t Ns = 0;
  uint64_t Calls = 0;
  uint64_t Tx = 0;
  /// Transactions after which live bytes were not zero, or that ran out of
  /// memory.
  uint64_t BadTx = 0;
};
OpReplay replayOps(const std::vector<Op> &Ops, ddm::AllocatorKind Kind,
                   const ddm::AllocatorOptions &Options);

/// The timed rounds of a run. Every round does the same work, so a slow
/// stretch of the host shows as a slow round.
struct Rounds {
  /// Each round's transaction host times (ms), in run order.
  std::vector<std::vector<double>> TxMs;
  std::vector<double> Rates; ///< Each round's transactions per second.

  /// Adds one round from its transactions' host ns.
  void add(const std::vector<int64_t> &TxNs);
};

/// Stores setup_s (median of \p SetupSec), tx_per_s (90th percentile of
/// the round rates), and tx_p50_ms / tx_p99_ms. The percentiles are taken
/// per block of consecutive rounds holding at least 1000 transactions, and
/// the 10th percentile over blocks is reported. A run without a full block
/// fails its check.
void setEndToEnd(Result &R, const std::vector<double> &SetupSec,
                 const Rounds &Rs);

/// Runtime configuration of a PHP-mode (bulk free where the kind has it,
/// otherwise a complete per-object sweep) or Ruby-mode run.
ddm::RuntimeConfig phpConfig(ddm::AllocatorKind Kind, uint64_t Seed,
                             double Scale);
ddm::RuntimeConfig rubyConfig(ddm::AllocatorKind Kind, uint64_t Seed,
                              double Scale);

/// Every allocator call an allocator has counted (malloc, free, realloc
/// and freeAll).
inline uint64_t allocatorCalls(const ddm::AllocatorStats &S) {
  return S.MallocCalls + S.FreeCalls + S.ReallocCalls + S.FreeAllCalls;
}

/// True when the two aggregates agree field for field.
bool sameStats(const ddm::TraceStats &A, const ddm::TraceStats &B);

/// \name Trace layer (shared by replay-zoo and the trace probe).
/// @{
/// Records \p Tx generated transactions of \p Spec into \p Path: events are
/// captured in memory first, then fed to a TraceRecorder whose calls alone
/// are timed (added to \p EncodeNs; \p Events counts them). Returns the
/// generator's statistics, or nullopt on an I/O error.
std::optional<ddm::TraceStats> recordTrace(const ddm::WorkloadSpec &Spec,
                                           const ddm::RuntimeConfig &Config,
                                           unsigned Tx, const std::string &Path,
                                           int64_t &EncodeNs, uint64_t &Events);

/// A decode-only pass and a decode+validate pass (TraceReplayer into a
/// NullExecutor) over \p Paths; appends the per-event ns of decoding and
/// of validation. False when a trace does not read back cleanly.
bool timeTraceReads(const std::vector<std::string> &Paths,
                    std::vector<double> &DecodeNs,
                    std::vector<double> &ValidateNs);
/// @}

/// \name Exec layer (shared by native-serve and the exec probe).
/// @{
struct ExecPlan {
  std::vector<ddm::WorkloadSpec> Mix;
  std::vector<double> Weights;
  uint64_t Seed = 1;
  double Scale = WorkloadScale;
  unsigned Threads = 2;
  /// Seconds per closed-loop window and per open-loop window.
  double SaturationWindowSec = 0.5;
  double OpenWindowSec = 1.5;
  /// Fixed open-loop rate (requests per second).
  double OpenRatePerSec = 300.0;
};

struct ExecMeasure {
  /// Per round: completed / wall over the closed-loop windows, and request
  /// latencies (ms) of the open-loop window, expanded from its histogram.
  Rounds Open;
  std::map<std::string, std::vector<double>> ModelTxPerSec;
  std::vector<double> Imbalance;
  double QueueMaxDepth = 0;
  uint64_t Attempted = 0;
  uint64_t Completed = 0;
  uint64_t Aborted = 0;
};

/// Runs closed- and open-loop windows round-robin until \p Seconds pass
/// (at least one round); each window is a span when \p Spans is set.
ExecMeasure measureExec(const ExecPlan &Plan, double Seconds,
                        SpanLog *Spans = nullptr);

/// Single-thread service times (ms, ascending) of the plan's mix, driven
/// by the benchmark; \p Bad counts transactions that failed. With \p Spans
/// every other transaction is recorded as a span and its time goes to
/// \p TracedMs instead.
std::vector<double> serviceTimesMs(const ExecPlan &Plan, unsigned Tx,
                                   uint64_t &Bad, SpanLog *Spans = nullptr,
                                   std::vector<double> *TracedMs = nullptr);

/// Stores the exec.* metrics from a measurement and service times.
void setExecMetrics(const ExecMeasure &M, const std::vector<double> &Service,
                    Result &R);
/// @}

/// \name Workload runners.
/// @{
Result runSimSweep(const Options &O);
Result runReplayZoo(const Options &O);
Result runNativeServe(const Options &O);
/// @}

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
