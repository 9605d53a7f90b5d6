//===- tests/experiments/ReplaySweepTest.cpp - Sharded replay determinism -===//
///
/// The property the fleet-replay pipeline stands on: merged metrics of a
/// sharded parallel replay are a pure function of the shard list —
/// byte-identical JSON at any job count and under either reader — and a
/// broken shard surfaces as a per-shard diagnostic, not a poisoned
/// merge.
///
//===----------------------------------------------------------------------===//

#include "experiments/ReplaySweep.h"
#include "trace/TraceSynthesizer.h"
#include "trace/TraceWriter.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

using namespace ddm;

namespace {

std::string tempPath(const std::string &Name) {
  return testing::TempDir() + "ddm_sweep_" + Name;
}

/// Synthesizes a small 4-shard fleet from one generated source trace.
std::vector<std::string> makeShards(const std::string &Tag) {
  std::string Source = tempPath(Tag + "_src") + TraceFileSuffix;
  TraceWriter Writer;
  TraceMeta Meta{"sweep-src", 1.0, 5};
  EXPECT_TRUE(Writer.open(Source, Meta).ok());
  for (int Tx = 0; Tx < 6; ++Tx) {
    for (uint32_t I = 0; I < 10; ++I) {
      TraceEvent E;
      E.Op = TraceOp::Alloc;
      E.Id = I;
      E.Size = 48 + 16 * I;
      Writer.append(E);
    }
    for (uint32_t I = 0; I < 10; ++I) {
      TraceEvent E;
      E.Op = TraceOp::Free;
      E.Id = I;
      Writer.append(E);
    }
    TraceEvent End;
    End.Op = TraceOp::EndTx;
    Writer.append(End);
  }
  EXPECT_TRUE(Writer.finish().ok());

  SynthSpec Spec;
  Spec.Sources = {{Source, 1}};
  Spec.Workers = 16;
  Spec.Transactions = 80;
  Spec.Shards = 4;
  Spec.Seed = 9;
  SynthReport Report;
  EXPECT_TRUE(synthesizeTrace(Spec, tempPath(Tag), Report).ok());
  std::remove(Source.c_str());
  return Report.ShardPaths;
}

void removeAll(const std::vector<std::string> &Paths) {
  for (const std::string &P : Paths)
    std::remove(P.c_str());
}

TEST(ReplaySweepTest, MergedMetricsIdenticalAtAnyJobCount) {
  std::vector<std::string> Shards = makeShards("jobs");
  ReplaySweepResult Serial = replayShardsParallel(Shards, 1);
  ReplaySweepResult Par4 = replayShardsParallel(Shards, 4);
  ReplaySweepResult ParAll = replayShardsParallel(Shards, 0);
  ASSERT_TRUE(Serial.ok()) << Serial.firstError();
  ASSERT_TRUE(Par4.ok()) << Par4.firstError();
  ASSERT_TRUE(ParAll.ok()) << ParAll.firstError();
  EXPECT_GT(Serial.Events, 0u);
  EXPECT_GT(Serial.Transactions, 0u);
  EXPECT_EQ(Serial.mergedMetricsJson(), Par4.mergedMetricsJson());
  EXPECT_EQ(Serial.mergedMetricsJson(), ParAll.mergedMetricsJson());
  removeAll(Shards);
}

TEST(ReplaySweepTest, ReaderKindDoesNotChangeTheMerge) {
  std::vector<std::string> Shards = makeShards("reader");
  ReplaySweepResult Mapped =
      replayShardsParallel(Shards, 2, TraceReaderKind::Mapped);
  ReplaySweepResult Streamed =
      replayShardsParallel(Shards, 2, TraceReaderKind::Streaming);
  ASSERT_TRUE(Mapped.ok()) << Mapped.firstError();
  ASSERT_TRUE(Streamed.ok()) << Streamed.firstError();
  EXPECT_EQ(Mapped.mergedMetricsJson(), Streamed.mergedMetricsJson());
  removeAll(Shards);
}

TEST(ReplaySweepTest, ShardOrderIsSubmissionOrder) {
  std::vector<std::string> Shards = makeShards("order");
  ReplaySweepResult R = replayShardsParallel(Shards, 4);
  ASSERT_TRUE(R.ok()) << R.firstError();
  ASSERT_EQ(R.Shards.size(), Shards.size());
  for (size_t I = 0; I < Shards.size(); ++I)
    EXPECT_EQ(R.Shards[I].Path, Shards[I]);
  removeAll(Shards);
}

TEST(ReplaySweepTest, BrokenShardIsIsolated) {
  std::vector<std::string> Shards = makeShards("broken");
  // Truncate one shard mid-file; the others must still replay.
  {
    FILE *F = fopen(Shards[1].c_str(), "rb+");
    ASSERT_NE(F, nullptr);
    fseek(F, 0, SEEK_END);
    long Len = ftell(F);
    fclose(F);
    ASSERT_EQ(truncate(Shards[1].c_str(), Len / 2), 0);
  }
  ReplaySweepResult R = replayShardsParallel(Shards, 4);
  EXPECT_FALSE(R.ok());
  EXPECT_FALSE(R.firstError().empty());
  EXPECT_FALSE(R.Shards[1].Status.ok());
  EXPECT_TRUE(R.Shards[0].Status.ok()) << R.Shards[0].Status.describe();
  EXPECT_TRUE(R.Shards[2].Status.ok());
  EXPECT_TRUE(R.Shards[3].Status.ok());
  removeAll(Shards);
}

} // namespace
