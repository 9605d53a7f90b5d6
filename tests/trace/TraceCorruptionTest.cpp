//===- tests/trace/TraceCorruptionTest.cpp - Malformed-input handling -----===//
///
/// Every way a trace file can be broken must surface as a TraceStatus
/// diagnostic — never an exception, abort, or silent misread: wrong magic,
/// future version, truncated header/frame/payload, CRC mismatch, garbage
/// inside a CRC-valid payload, and semantically impossible event streams
/// (double alloc of a live id, free of an unknown id, realloc size lies,
/// an allocation id no producer could have handed out yet, truncation
/// inside a transaction).
///
/// Every reader-level case runs through both byte sources (mmap and
/// read()), and a FIFO, and must report the identical diagnostic:
/// message, byte offset and event index.
///
//===----------------------------------------------------------------------===//

#include "support/Crc32.h"
#include "trace/TraceCodec.h"
#include "trace/TraceReader.h"
#include "trace/TraceReplayer.h"
#include "trace/TraceWriter.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace ddm;

namespace {

std::string tempPath(const std::string &Name) {
  return testing::TempDir() + "ddm_corrupt_" + Name + TraceFileSuffix;
}

std::string slurp(const std::string &Path) {
  std::string Data;
  FILE *F = fopen(Path.c_str(), "rb");
  EXPECT_NE(F, nullptr) << Path;
  if (!F)
    return Data;
  char Buffer[4096];
  size_t N;
  while ((N = fread(Buffer, 1, sizeof(Buffer), F)) > 0)
    Data.append(Buffer, N);
  fclose(F);
  return Data;
}

void spit(const std::string &Path, const std::string &Data) {
  FILE *F = fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr) << Path;
  ASSERT_EQ(fwrite(Data.data(), 1, Data.size(), F), Data.size());
  fclose(F);
}

/// Writes a small valid trace (2 transactions of allocs + frees) and
/// returns its bytes.
std::string makeValidTrace(const std::string &Path) {
  TraceWriter Writer;
  TraceMeta Meta{"synthetic", 1.0, 3};
  EXPECT_TRUE(Writer.open(Path, Meta).ok());
  for (int Tx = 0; Tx < 2; ++Tx) {
    for (uint32_t Id = 0; Id < 50; ++Id) {
      TraceEvent E;
      E.Op = TraceOp::Alloc;
      E.Id = Id;
      E.Size = 64 + Id;
      Writer.append(E);
    }
    for (uint32_t Id = 0; Id < 50; ++Id) {
      TraceEvent E;
      E.Op = TraceOp::Free;
      E.Id = Id;
      Writer.append(E);
    }
    TraceEvent End;
    End.Op = TraceOp::EndTx;
    Writer.append(End);
  }
  EXPECT_TRUE(Writer.finish().ok());
  return slurp(Path);
}

/// Scans \p Path through the read() source and the mmap source; both must
/// reach the identical verdict (message, byte offset and event index).
TraceStatus summarizeBothSources(const std::string &Path) {
  TraceSummary Stream, Mapped;
  TraceStatus S = summarizeTrace(Path, Stream, TraceReaderKind::Streaming);
  TraceStatus M = summarizeTrace(Path, Mapped, TraceReaderKind::Mapped);
  EXPECT_EQ(S.describe(), M.describe()) << Path;
  return S;
}

/// Expects open()-or-scan of \p Path to fail with a non-empty diagnostic,
/// identically through both byte sources.
void expectBroken(const std::string &Path) {
  TraceStatus Status = summarizeBothSources(Path);
  EXPECT_FALSE(Status.ok());
  EXPECT_FALSE(Status.Message.empty());
  EXPECT_NE(Status.describe(), "ok");
}

/// Event-sequence builder for semantically invalid traces: container and
/// CRC are valid, the event stream is not.
std::string writeEventTrace(const std::string &Name,
                            const std::vector<TraceEvent> &Events) {
  std::string Path = tempPath(Name);
  TraceWriter Writer;
  TraceMeta Meta{"synthetic", 1.0, 3};
  EXPECT_TRUE(Writer.open(Path, Meta).ok());
  for (const TraceEvent &E : Events)
    Writer.append(E);
  EXPECT_TRUE(Writer.finish().ok());
  return Path;
}

TraceEvent event(TraceOp Op, uint32_t Id = 0, uint64_t Size = 0,
                 uint64_t OldSize = 0) {
  TraceEvent E;
  E.Op = Op;
  E.Id = Id;
  E.Size = Size;
  E.OldSize = OldSize;
  return E;
}

/// Frames \p Payload with a *correct* CRC and an arbitrary declared event
/// count — for crafting frames that pass integrity checks but lie.
std::string frameBytes(const std::string &Payload, uint32_t EventCount) {
  std::string Frame;
  appendU32(Frame, uint32_t(Payload.size()));
  appendU32(Frame, EventCount);
  appendU32(Frame, crc32(Payload.data(), Payload.size()));
  return Frame + Payload;
}

/// End offset of the meta frame in a trace file's bytes (the first data
/// frame starts here).
size_t metaEnd(const std::string &Data) {
  uint32_t PayloadLen = 0;
  for (int I = 0; I < 4; ++I)
    PayloadLen |= uint32_t(uint8_t(Data[12 + I])) << (8 * I);
  return 12 + 12 + PayloadLen;
}

/// A sink that performs no allocation — replay validation runs before the
/// executor sees anything, which is exactly what these tests exercise.
class NullExecutor : public TxExecutor {
public:
  void onAlloc(uint32_t, size_t) override {}
  void onFree(uint32_t) override {}
  void onRealloc(uint32_t, size_t, size_t) override {}
  void onTouch(uint32_t, bool) override {}
  void onWork(uint64_t) override {}
  void onStateTouch(uint64_t, bool) override {}
};

/// Counts the allocations that reach the executor.
class CountingExecutor : public NullExecutor {
public:
  void onAlloc(uint32_t, size_t) override { ++Allocs; }
  unsigned Allocs = 0;
};

/// Replays \p Path to completion; returns the first non-Tx step.
TraceReplayer::Step replayAll(const std::string &Path, TraceStatus &Status,
                              uint64_t StateBytesLimit = 0) {
  TraceReplayer Replayer;
  TraceStatus Open = Replayer.open(Path);
  if (!Open.ok()) {
    Status = Open;
    return TraceReplayer::Step::Error;
  }
  NullExecutor Executor;
  TraceStats Stats;
  TraceReplayer::Step Step;
  while ((Step = Replayer.replayTransactionInto(Executor, Stats,
                                                StateBytesLimit)) ==
         TraceReplayer::Step::Tx)
    ;
  Status = Replayer.status();
  return Step;
}

} // namespace

TEST(TraceCorruptionTest, MissingFileFails) {
  TraceReader Reader;
  EXPECT_FALSE(Reader.open(tempPath("does_not_exist")).ok());
}

TEST(TraceCorruptionTest, EmptyFileFails) {
  std::string Path = tempPath("empty");
  spit(Path, "");
  expectBroken(Path);
  std::remove(Path.c_str());
}

TEST(TraceCorruptionTest, BadMagicFails) {
  std::string Path = tempPath("magic");
  std::string Data = makeValidTrace(Path);
  Data[0] = 'X';
  spit(Path, Data);
  expectBroken(Path);
  std::remove(Path.c_str());
}

TEST(TraceCorruptionTest, FutureVersionFails) {
  std::string Path = tempPath("version");
  std::string Data = makeValidTrace(Path);
  Data[8] = char(99); // version field follows the 8-byte magic
  spit(Path, Data);
  expectBroken(Path);
  std::remove(Path.c_str());
}

TEST(TraceCorruptionTest, TruncatedHeaderFails) {
  std::string Path = tempPath("header");
  std::string Data = makeValidTrace(Path);
  for (size_t Cut : {size_t(3), size_t(8), size_t(10)}) {
    spit(Path, Data.substr(0, Cut));
    expectBroken(Path);
  }
  std::remove(Path.c_str());
}

TEST(TraceCorruptionTest, TruncatedFrameFails) {
  // Any cut that is not a frame boundary must be detected — a trace that
  // lost its tail is not silently shorter.
  std::string Path = tempPath("truncated");
  std::string Data = makeValidTrace(Path);
  for (size_t Cut : {Data.size() - 1, Data.size() - 7, Data.size() / 2}) {
    spit(Path, Data.substr(0, Cut));
    expectBroken(Path);
  }
  std::remove(Path.c_str());
}

TEST(TraceCorruptionTest, FlippedPayloadByteFailsCrc) {
  std::string Path = tempPath("crc");
  std::string Data = makeValidTrace(Path);
  std::string Broken = Data;
  Broken[Broken.size() - 1] ^= 0x40; // inside the last block's payload
  spit(Path, Broken);
  expectBroken(Path);
  std::remove(Path.c_str());
}

TEST(TraceCorruptionTest, CrcValidGarbagePayloadFailsDecode) {
  // Re-frame a garbage payload with a *correct* CRC: the frame passes the
  // integrity check and must then die in the event decoder.
  std::string Path = tempPath("garbage");
  std::string Data = makeValidTrace(Path);

  std::string Payload = "\xff\xff\xff\xff"; // 0xff: invalid event tag
  std::string Frame;
  auto PutU32 = [&Frame](uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Frame.push_back(char((V >> (8 * I)) & 0xff));
  };
  PutU32(uint32_t(Payload.size()));
  PutU32(4); // claims 4 events
  PutU32(crc32(Payload.data(), Payload.size()));
  Frame += Payload;

  // Keep header + meta frame, replace everything after with the garbage
  // frame. The meta frame starts at offset 12; find its end.
  size_t Pos = 12;
  auto GetU32 = [&Data](size_t At) {
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= uint32_t(uint8_t(Data[At + I])) << (8 * I);
    return V;
  };
  size_t MetaEnd = Pos + 12 + GetU32(Pos);
  spit(Path, Data.substr(0, MetaEnd) + Frame);
  expectBroken(Path);
  std::remove(Path.c_str());
}

TEST(TraceCorruptionTest, EventCountLieFails) {
  // A frame claiming more events than its payload holds.
  std::string Path = tempPath("countlie");
  std::string Data = makeValidTrace(Path);
  // First data frame header is right after the meta frame.
  auto GetU32 = [&Data](size_t At) {
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= uint32_t(uint8_t(Data[At + I])) << (8 * I);
    return V;
  };
  size_t FrameAt = 12 + 12 + GetU32(12);
  uint32_t Count = GetU32(FrameAt + 4) + 1000;
  for (int I = 0; I < 4; ++I)
    Data[FrameAt + 4 + I] = char((Count >> (8 * I)) & 0xff);
  spit(Path, Data);
  expectBroken(Path);
  std::remove(Path.c_str());
}

TEST(TraceCorruptionTest, OversizedFrameLengthFails) {
  std::string Path = tempPath("oversize");
  std::string Data = makeValidTrace(Path);
  // Claim a payload beyond TraceMaxBlockBytes in the first data frame.
  auto GetU32 = [&Data](size_t At) {
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= uint32_t(uint8_t(Data[At + I])) << (8 * I);
    return V;
  };
  size_t FrameAt = 12 + 12 + GetU32(12);
  uint32_t Huge = uint32_t(TraceMaxBlockBytes) + 1;
  for (int I = 0; I < 4; ++I)
    Data[FrameAt + I] = char((Huge >> (8 * I)) & 0xff);
  spit(Path, Data);
  expectBroken(Path);
  std::remove(Path.c_str());
}

TEST(TraceCorruptionTest, ReplayRejectsDoubleAllocOfLiveId) {
  std::string Path = writeEventTrace(
      "doublealloc", {event(TraceOp::Alloc, 0, 16), event(TraceOp::Alloc, 0, 16),
                      event(TraceOp::EndTx)});
  TraceStatus Status;
  EXPECT_EQ(replayAll(Path, Status), TraceReplayer::Step::Error);
  EXPECT_FALSE(Status.ok());
  std::remove(Path.c_str());
}

TEST(TraceCorruptionTest, ReplayRejectsFreeOfUnknownId) {
  std::string Path =
      writeEventTrace("freeunknown", {event(TraceOp::Alloc, 0, 16),
                                      event(TraceOp::Free, 3),
                                      event(TraceOp::EndTx)});
  TraceStatus Status;
  EXPECT_EQ(replayAll(Path, Status), TraceReplayer::Step::Error);
  std::remove(Path.c_str());
}

TEST(TraceCorruptionTest, ReplayRejectsDoubleFree) {
  std::string Path = writeEventTrace(
      "doublefree", {event(TraceOp::Alloc, 0, 16), event(TraceOp::Free, 0),
                     event(TraceOp::Free, 0), event(TraceOp::EndTx)});
  TraceStatus Status;
  EXPECT_EQ(replayAll(Path, Status), TraceReplayer::Step::Error);
  std::remove(Path.c_str());
}

TEST(TraceCorruptionTest, ReplayRejectsReallocOldSizeMismatch) {
  std::string Path = writeEventTrace(
      "reallocsize", {event(TraceOp::Alloc, 0, 16),
                      event(TraceOp::Realloc, 0, 64, /*OldSize=*/99),
                      event(TraceOp::EndTx)});
  TraceStatus Status;
  EXPECT_EQ(replayAll(Path, Status), TraceReplayer::Step::Error);
  std::remove(Path.c_str());
}

TEST(TraceCorruptionTest, ReplayRejectsTouchOfDeadObject) {
  std::string Path = writeEventTrace(
      "touchdead", {event(TraceOp::Alloc, 0, 16), event(TraceOp::Free, 0),
                    event(TraceOp::Touch, 0), event(TraceOp::EndTx)});
  TraceStatus Status;
  EXPECT_EQ(replayAll(Path, Status), TraceReplayer::Step::Error);
  std::remove(Path.c_str());
}

TEST(TraceCorruptionTest, ReplayRejectsStateTouchPastLimit) {
  std::string Path = writeEventTrace(
      "statetouch",
      {event(TraceOp::StateTouch, 0, /*Size=offset*/ 1 << 20),
       event(TraceOp::EndTx)});
  TraceStatus Status;
  EXPECT_EQ(replayAll(Path, Status, /*StateBytesLimit=*/4096),
            TraceReplayer::Step::Error);
  std::remove(Path.c_str());
}

TEST(TraceCorruptionTest, ReplayRejectsEofMidTransaction) {
  // Events but no EndTx: the file is well-formed, the run is incomplete.
  std::string Path = writeEventTrace(
      "midtx", {event(TraceOp::Alloc, 0, 16), event(TraceOp::Alloc, 1, 16)});
  TraceStatus Status;
  EXPECT_EQ(replayAll(Path, Status), TraceReplayer::Step::Error);
  EXPECT_FALSE(Status.ok());
  std::remove(Path.c_str());
}

TEST(TraceCorruptionTest, ReplayRejectsStateTouchOffsetWrap) {
  // An offset near 2^64 makes offset+64 wrap to a small value; the bounds
  // check must not be fooled by the wrap.
  std::string Path = writeEventTrace(
      "statewrap", {event(TraceOp::StateTouch, 0, ~uint64_t(0) - 10),
                    event(TraceOp::EndTx)});
  TraceStatus Status;
  EXPECT_EQ(replayAll(Path, Status, /*StateBytesLimit=*/4096),
            TraceReplayer::Step::Error);
  std::remove(Path.c_str());
}

TEST(TraceCorruptionTest, ReplayRejectsStateTouchWithNoStateArea) {
  // Limit 0 means the workload has no state area: every state touch is
  // out of range, including offset 0.
  std::string Path = writeEventTrace(
      "statenone",
      {event(TraceOp::StateTouch, 0, 0), event(TraceOp::EndTx)});
  TraceStatus Status;
  EXPECT_EQ(replayAll(Path, Status, /*StateBytesLimit=*/0),
            TraceReplayer::Step::Error);
  std::remove(Path.c_str());
}

TEST(TraceCorruptionTest, ReplayRejectsAllocationIdJumpingAhead) {
  // A hostile first event: nothing precedes id 0xFFFFFFF0, so no producer
  // could have handed it out. It must fail validation before the executor
  // (whose object records are indexed by id) ever sees it.
  std::string Path =
      writeEventTrace("idjump", {event(TraceOp::Alloc, 0xFFFFFFF0u, 16),
                                 event(TraceOp::EndTx)});
  TraceReplayer Replayer;
  ASSERT_TRUE(Replayer.open(Path).ok());
  CountingExecutor Executor;
  TraceStats Stats;
  EXPECT_EQ(Replayer.replayTransactionInto(Executor, Stats),
            TraceReplayer::Step::Error);
  EXPECT_EQ(Executor.Allocs, 0u);
  EXPECT_EQ(Stats.Mallocs, 0u);
  const TraceStatus &Status = Replayer.status();
  EXPECT_EQ(Status.EventIndex, 0u);
  EXPECT_GT(Status.ByteOffset, 0u);
  EXPECT_EQ(Status.Message,
            "allocation of object id 4294967280 jumps ahead of the "
            "transaction's ids (only 0 events precede it)");
  std::remove(Path.c_str());
}

TEST(TraceCorruptionTest, ReplayBoundsIdsByTheEventsBeforeThemInTheirTx) {
  // An id may equal the number of events before it in its transaction
  // (ids are dense, and other events can sit between allocations), never
  // exceed it; the count restarts at every boundary.
  std::string Path = writeEventTrace(
      "idbound",
      {event(TraceOp::Work, 0, 10), event(TraceOp::Work, 0, 10),
       event(TraceOp::Alloc, 2, 16), event(TraceOp::EndTx),
       event(TraceOp::Alloc, 0, 16), event(TraceOp::Work, 0, 10),
       event(TraceOp::Alloc, 3, 16), event(TraceOp::EndTx)});
  TraceReplayer Replayer;
  ASSERT_TRUE(Replayer.open(Path).ok());
  CountingExecutor Executor;
  TraceStats Stats;
  EXPECT_EQ(Replayer.replayTransactionInto(Executor, Stats),
            TraceReplayer::Step::Tx);
  EXPECT_EQ(Replayer.replayTransactionInto(Executor, Stats),
            TraceReplayer::Step::Error);
  EXPECT_EQ(Executor.Allocs, 2u);
  EXPECT_EQ(Replayer.status().EventIndex, 6u);
  EXPECT_NE(Replayer.status().Message.find("object id 3 jumps ahead"),
            std::string::npos)
      << Replayer.status().describe();
  std::remove(Path.c_str());
}

TEST(TraceCorruptionTest, ReplayReportsIdsBeyondTheTableAsUnknown) {
  // Free, realloc and touch of an id no allocation has reached this
  // transaction — past the table, or inside storage a previous
  // transaction left behind — keep the unknown-object diagnostics.
  struct Case {
    std::vector<TraceEvent> Events;
    const char *Message;
  };
  std::vector<TraceEvent> FiveLive;
  for (uint32_t Id = 0; Id < 5; ++Id)
    FiveLive.push_back(event(TraceOp::Alloc, Id, 16));
  FiveLive.push_back(event(TraceOp::EndTx));
  std::vector<TraceEvent> StaleTouch = FiveLive;
  StaleTouch.push_back(event(TraceOp::Touch, 3));
  const Case Cases[] = {
      {{event(TraceOp::Alloc, 0, 16), event(TraceOp::Free, 7)},
       "free of unknown or already-freed object id 7"},
      {{event(TraceOp::Alloc, 0, 16), event(TraceOp::Touch, 9)},
       "touch of unknown or already-freed object id 9"},
      {{event(TraceOp::Alloc, 0, 16), event(TraceOp::Realloc, 4000, 32, 16)},
       "realloc of unknown or already-freed object id 4000"},
      {{event(TraceOp::Free, 4294967295u)},
       "free of unknown or already-freed object id 4294967295"},
      {StaleTouch, "touch of unknown or already-freed object id 3"},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Message);
    std::vector<TraceEvent> Events = C.Events;
    Events.push_back(event(TraceOp::EndTx));
    std::string Path = writeEventTrace("beyond", Events);
    TraceStatus Status;
    EXPECT_EQ(replayAll(Path, Status), TraceReplayer::Step::Error);
    EXPECT_EQ(Status.Message, C.Message);
    std::remove(Path.c_str());
  }
}

TEST(TraceCorruptionTest, ReplayRejectsReuseOfALiveIdAfterRealloc) {
  std::string Path = writeEventTrace(
      "reallocreuse", {event(TraceOp::Alloc, 0, 16),
                       event(TraceOp::Realloc, 0, 32, /*OldSize=*/16),
                       event(TraceOp::Alloc, 0, 8), event(TraceOp::EndTx)});
  TraceStatus Status;
  EXPECT_EQ(replayAll(Path, Status), TraceReplayer::Step::Error);
  EXPECT_EQ(Status.Message, "allocation reuses live object id 0");
  EXPECT_EQ(Status.EventIndex, 2u);
  std::remove(Path.c_str());
}

TEST(TraceCorruptionTest, HostileIdDeltaFailsDecode) {
  // A CRC-valid frame whose free-id delta is INT64_MIN: the decoder's
  // Base - Delta must reject it as out of range, not overflow.
  std::string Path = tempPath("hostileid");
  std::string Data = makeValidTrace(Path);
  std::string Payload;
  Payload.push_back(char(TraceOp::Alloc));
  appendZigzag(Payload, 0);  // id 0 (delta from expected next id)
  appendVarint(Payload, 16); // size
  appendVarint(Payload, 0);  // alignment
  Payload.push_back(char(TraceOp::Free));
  appendZigzag(Payload, std::numeric_limits<int64_t>::min());
  spit(Path, Data.substr(0, metaEnd(Data)) + frameBytes(Payload, 2));
  expectBroken(Path);
  std::remove(Path.c_str());
}

TEST(TraceCorruptionTest, HostileWorkDeltaFailsDecode) {
  // Two work events of delta INT64_MAX: the second sum leaves the valid
  // instruction-count range and must be a decode error, not a wrap.
  std::string Path = tempPath("hostilework");
  std::string Data = makeValidTrace(Path);
  std::string Payload;
  for (int I = 0; I < 2; ++I) {
    Payload.push_back(char(TraceOp::Work));
    appendZigzag(Payload, std::numeric_limits<int64_t>::max());
  }
  spit(Path, Data.substr(0, metaEnd(Data)) + frameBytes(Payload, 2));
  expectBroken(Path);
  std::remove(Path.c_str());
}

TEST(TraceCorruptionTest, MetaNameLengthWrapFails) {
  // A metadata frame whose name length is near 2^64: Pos + NameLen wraps,
  // so the bounds check must be phrased to survive it.
  std::string Path = tempPath("metalen");
  std::string Data = makeValidTrace(Path);
  std::string Payload;
  appendVarint(Payload, ~uint64_t(0)); // workload-name length
  Payload += "x";
  spit(Path, Data.substr(0, 12) + frameBytes(Payload, 0));
  expectBroken(Path);
  std::remove(Path.c_str());
}

TEST(TraceCorruptionTest, ZeroEventCountFrameWithPayloadFails) {
  // A mid-file frame declaring zero events over a non-empty payload: its
  // bytes are undeclared events and must be rejected, not replayed.
  std::string Path = tempPath("zerocount");
  std::string Data = makeValidTrace(Path);
  std::string Payload(1, char(TraceOp::EndTx));
  size_t MetaEnd = metaEnd(Data);
  spit(Path, Data.substr(0, MetaEnd) + frameBytes(Payload, 0) +
                 Data.substr(MetaEnd));
  TraceStatus Status = summarizeBothSources(Path);
  ASSERT_FALSE(Status.ok());
  EXPECT_NE(Status.Message.find("trailing bytes"), std::string::npos)
      << Status.describe();
  std::remove(Path.c_str());
}

TEST(TraceCorruptionTest, DiagnosticsCarryLocation) {
  // The classic triage flow: a byte flip deep in the file must report a
  // frame offset the user can actually look at.
  std::string Path = tempPath("location");
  std::string Data = makeValidTrace(Path);
  std::string Broken = Data;
  Broken[Broken.size() - 2] ^= 0x01;
  spit(Path, Broken);
  TraceStatus Status = summarizeBothSources(Path);
  ASSERT_FALSE(Status.ok());
  EXPECT_GT(Status.ByteOffset, 0u);
  std::remove(Path.c_str());
}

TEST(TraceCorruptionTest, FifoReportsTheFileDiagnostic) {
  // A corrupt frame after valid ones, fed through a FIFO: the reader
  // delivers the valid prefix and then reports exactly what it reports
  // for the same bytes in a regular file.
  std::string Path = tempPath("fifo_src");
  std::string Data = makeValidTrace(Path) + frameBytes("\xff\xff\xff", 3);
  spit(Path, Data);
  TraceSummary FileSummary;
  TraceStatus FromFile =
      summarizeTrace(Path, FileSummary, TraceReaderKind::Mapped);
  ASSERT_FALSE(FromFile.ok());
  EXPECT_EQ(FromFile.EventIndex, 202u) << FromFile.describe();

  std::string Fifo = testing::TempDir() + "ddm_corrupt_fifo";
  std::remove(Fifo.c_str());
  ASSERT_EQ(mkfifo(Fifo.c_str(), 0600), 0) << strerror(errno);
  // One write() well under the pipe capacity: it completes before the
  // reader can fail and close its end, so the writer never sees SIGPIPE.
  ASSERT_LT(Data.size(), 4096u);
  std::thread Writer([&] {
    int Fd = ::open(Fifo.c_str(), O_WRONLY);
    if (Fd < 0)
      return;
    EXPECT_EQ(::write(Fd, Data.data(), Data.size()),
              static_cast<ssize_t>(Data.size()));
    ::close(Fd);
  });
  TraceSummary FifoSummary;
  TraceStatus FromFifo = summarizeTrace(Fifo, FifoSummary);
  Writer.join();
  EXPECT_EQ(FromFifo.describe(), FromFile.describe());
  std::remove(Fifo.c_str());
  std::remove(Path.c_str());
}
