//===- tests/trace/TraceReplayOomTest.cpp - Mid-replay heap exhaustion ----===//
///
/// A trace replayed into a runtime whose allocator runs dry (here: the
/// worker_heap fault site, deterministically) must stop with a positioned
/// diagnostic — which allocation, at which event and byte offset — instead
/// of silently replaying a rolled-back stream. The satellite of the
/// recoverable-OOM tentpole that covers the replay path.
///
//===----------------------------------------------------------------------===//

#include "runtime/TransactionRuntime.h"
#include "support/FaultInjection.h"
#include "trace/TraceRecorder.h"
#include "trace/TraceReplayer.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

using namespace ddm;

namespace {

class TraceReplayOomTest : public testing::Test {
protected:
  void TearDown() override {
    FaultInjector::instance().disarm();
    if (!Path.empty())
      std::remove(Path.c_str());
  }

  static void arm(const std::string &Spec) {
    FaultPlan Plan;
    std::string Error;
    ASSERT_TRUE(FaultPlan::parse(Spec, Plan, Error)) << Error;
    FaultInjector::instance().arm(Plan);
  }

  static RuntimeConfig config() {
    RuntimeConfig Config;
    Config.Kind = AllocatorKind::DDmalloc;
    Config.UseBulkFree = true;
    Config.Scale = 0.05;
    Config.Seed = 77;
    return Config;
  }

  /// Records two clean transactions and returns the trace path.
  void record() {
    // One file per test: ctest runs the tests of this fixture as separate
    // concurrent processes, and a shared path would let one truncate the
    // file while another has it mapped.
    Path = testing::TempDir() + "ddm_replay_oom_" +
           testing::UnitTest::GetInstance()->current_test_info()->name() +
           TraceFileSuffix;
    const WorkloadSpec W = phpBb();
    TraceRecorder Recorder;
    ASSERT_TRUE(Recorder.open(Path, TraceMeta{W.Name, 0.05, 77}).ok());
    TransactionRuntime Runtime(W, config());
    Runtime.attachTraceSink(&Recorder);
    for (int I = 0; I < 2; ++I)
      ASSERT_EQ(Runtime.executeTransaction(), TxStatus::Ok);
    ASSERT_TRUE(Recorder.finish().ok());
  }

  std::string Path;
};

TEST_F(TraceReplayOomTest, MidReplayOomStopsWithPositionedDiagnostic) {
  record();
  TraceReplayer Replayer;
  ASSERT_TRUE(Replayer.open(Path).ok());
  TransactionRuntime Runtime(phpBb(), config());
  arm("seed=1,worker_heap:every=30"); // the 30th replayed allocation fails
  EXPECT_EQ(Replayer.replayTransaction(Runtime), TraceReplayer::Step::Error);

  const TraceStatus &Status = Replayer.status();
  ASSERT_FALSE(Status.ok());
  EXPECT_NE(Status.Message.find("exhausted its heap"), std::string::npos)
      << Status.describe();
  EXPECT_NE(Status.Message.find("bytes for object"), std::string::npos)
      << Status.describe();
  // Positioned: the diagnostic points into the file, at the right event.
  EXPECT_GT(Status.ByteOffset, 0u);
  EXPECT_GT(Status.EventIndex, 0u);

  // The runtime itself is still usable: the abort is the replay driver's
  // to surface, not a process failure.
  FaultInjector::instance().disarm();
  EXPECT_EQ(Runtime.completeTransaction(TraceStats()), TxStatus::OutOfMemory);
  EXPECT_EQ(Runtime.allocator().stats().UsableBytesLive, 0u);
  EXPECT_EQ(Runtime.executeTransaction(), TxStatus::Ok);
}

TEST_F(TraceReplayOomTest, CleanReplayStillWorksWhileInjectorDisarmed) {
  record();
  TraceReplayer Replayer;
  ASSERT_TRUE(Replayer.open(Path).ok());
  TransactionRuntime Runtime(phpBb(), config());
  EXPECT_EQ(Replayer.replayTransaction(Runtime), TraceReplayer::Step::Tx);
  EXPECT_EQ(Replayer.replayTransaction(Runtime), TraceReplayer::Step::Tx);
  EXPECT_EQ(Replayer.replayTransaction(Runtime), TraceReplayer::Step::End);
  EXPECT_EQ(Runtime.metrics().Transactions, 2u);
  EXPECT_EQ(Runtime.metrics().OomAborts, 0u);
}

} // namespace
