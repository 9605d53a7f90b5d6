//===- experiments/ReplaySweep.cpp - Sharded parallel trace replay --------===//

#include "experiments/ReplaySweep.h"

#include "experiments/SweepRunner.h"
#include "support/Json.h"
#include "trace/TraceReplayer.h"

#include <sys/stat.h>

using namespace ddm;

std::string ReplaySweepResult::firstError() const {
  for (const ShardReplayResult &S : Shards)
    if (!S.Status.ok())
      return S.Path + ": " + S.Status.describe();
  return std::string();
}

std::string ReplaySweepResult::mergedMetricsJson() const {
  JsonWriter J;
  J.beginObject()
      .field("shards", static_cast<uint64_t>(Shards.size()))
      .field("transactions", Transactions)
      .field("events", Events)
      .field("mallocs", Merged.Mallocs)
      .field("frees", Merged.Frees)
      .field("reallocs", Merged.Reallocs)
      .field("callocs", Merged.Callocs)
      .field("aligned_allocs", Merged.AlignedAllocs)
      .field("allocated_bytes", Merged.AllocatedBytes)
      .field("object_touches", Merged.ObjectTouches)
      .field("state_touches", Merged.StateTouches)
      .field("work_instructions", Merged.WorkInstructions)
      .key("per_shard")
      .beginArray();
  for (const ShardReplayResult &S : Shards)
    J.beginObject()
        .field("transactions", S.Transactions)
        .field("events", S.Events)
        .field("mallocs", S.Stats.Mallocs)
        .field("frees", S.Stats.Frees)
        .field("allocated_bytes", S.Stats.AllocatedBytes)
        .endObject();
  J.endArray().endObject();
  return J.str();
}

namespace {

ShardReplayResult replayOneShard(const std::string &Path,
                                 TraceReaderKind Kind) {
  ShardReplayResult R;
  R.Path = Path;
  struct stat St;
  if (::stat(Path.c_str(), &St) == 0)
    R.Bytes = static_cast<uint64_t>(St.st_size);

  TraceSummary Summary;
  R.Status = summarizeTrace(Path, Summary, Kind);
  R.Stats = Summary.Total;
  R.Transactions = Summary.Transactions;
  R.Events = Summary.Events;
  return R;
}

} // namespace

ReplaySweepResult
ddm::replayShardsParallel(const std::vector<std::string> &ShardPaths,
                          unsigned Jobs, TraceReaderKind Kind) {
  std::vector<std::function<ShardReplayResult()>> Tasks;
  Tasks.reserve(ShardPaths.size());
  for (const std::string &Path : ShardPaths)
    Tasks.push_back([Path, Kind] { return replayOneShard(Path, Kind); });

  SweepRunner Runner(Jobs);
  ReplaySweepResult Result;
  Result.Shards = Runner.run(Tasks);
  Result.Millis = Runner.totalMillis();

  // Merge in submission order: byte-identical at any job count.
  for (ShardReplayResult &S : Result.Shards) {
    Result.Merged.add(S.Stats);
    Result.Transactions += S.Transactions;
    Result.Events += S.Events;
    Result.Bytes += S.Bytes;
  }
  return Result;
}
