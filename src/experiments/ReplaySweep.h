//===- experiments/ReplaySweep.h - Sharded parallel trace replay -*- C++ -*-===//
///
/// \file
/// Replays a set of trace shards in parallel on a SweepRunner pool, one
/// shard per task, and merges their per-shard statistics in submission
/// order. Each shard is a self-contained validating replay (the
/// summarizeTrace scan `tracestat` uses), so the SweepRunner determinism
/// contract applies directly: the merged metrics are a pure function of
/// the shard list and are byte-identical at any `--jobs` count — the
/// property bench_replay_throughput's `--check` mode enforces by
/// comparing jobs=1 against jobs=N, and the CI job re-checks across
/// processes by byte-comparing `--metrics-out` files.
///
/// Shards synthesized by TraceSynthesizer partition workers (worker w →
/// shard w mod K), so replaying the shards concurrently is equivalent to
/// replaying the fleet serially: no object id, and hence no validation
/// state, ever crosses a shard boundary.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_EXPERIMENTS_REPLAYSWEEP_H
#define DDM_EXPERIMENTS_REPLAYSWEEP_H

#include "trace/TraceInput.h"
#include "workload/TraceGenerator.h"

#include <string>
#include <vector>

namespace ddm {

/// One shard's validating replay outcome.
struct ShardReplayResult {
  std::string Path;
  TraceStats Stats;          ///< Aggregate event counts of the shard.
  uint64_t Transactions = 0; ///< Transactions replayed.
  uint64_t Events = 0;       ///< Events replayed.
  uint64_t Bytes = 0;        ///< Container bytes consumed.
  TraceStatus Status;        ///< First error, or success.
};

/// The merged outcome of a sharded replay.
struct ReplaySweepResult {
  std::vector<ShardReplayResult> Shards; ///< In input (submission) order.
  TraceStats Merged;         ///< Sum of per-shard stats, submission order.
  uint64_t Transactions = 0; ///< Total transactions across shards.
  uint64_t Events = 0;       ///< Total events across shards.
  uint64_t Bytes = 0;        ///< Total container bytes.
  double Millis = 0;         ///< Wall-clock of the whole sweep.

  bool ok() const {
    for (const ShardReplayResult &S : Shards)
      if (!S.Status.ok())
        return false;
    return true;
  }

  /// The first failing shard's diagnostic ("" when ok()).
  std::string firstError() const;

  /// Canonical JSON rendering of the merged metrics ONLY — no timing, no
  /// paths — so two runs over the same shards compare byte-for-byte
  /// regardless of job count, machine speed, or output location.
  std::string mergedMetricsJson() const;
};

/// Replays \p ShardPaths in parallel on \p Jobs workers (0 = hardware
/// concurrency) with the reader picked by \p Kind, merging results in
/// submission order.
ReplaySweepResult replayShardsParallel(const std::vector<std::string> &ShardPaths,
                                       unsigned Jobs,
                                       TraceReaderKind Kind =
                                           TraceReaderKind::Auto);

} // namespace ddm

#endif // DDM_EXPERIMENTS_REPLAYSWEEP_H
