//===- tests/trace/MappedReaderTest.cpp - mmap/streaming reader parity ----===//
///
/// The reader's mmap source must be observationally identical to its
/// read() source: same decoded event sequence on valid traces, same
/// diagnostic (message, byte offset, event index) on broken ones, and the
/// same prefix-then-error delivery order when corruption sits past a valid
/// block prefix. Also pins openTraceInput()'s selection policy: mmap
/// for regular files, read() for FIFOs, and a hard error when the
/// caller forces mmap onto something unmappable.
///
//===----------------------------------------------------------------------===//

#include "support/Crc32.h"
#include "trace/TraceInput.h"
#include "trace/TraceReader.h"
#include "trace/TraceWriter.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

using namespace ddm;

namespace {

std::string tempPath(const std::string &Name) {
  return testing::TempDir() + "ddm_mapped_" + Name + TraceFileSuffix;
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

/// A trace exercising every op the format knows, across several
/// transactions and with sizes spanning 1..4-byte varint encodings.
std::string makeFullTrace(const std::string &Path, int Transactions = 6) {
  TraceWriter Writer;
  TraceMeta Meta{"synthetic", 1.0, 11};
  EXPECT_TRUE(Writer.open(Path, Meta).ok());
  auto Emit = [&](TraceOp Op, uint32_t Id, uint64_t Size, uint64_t OldSize,
                  uint32_t Alignment, bool IsWrite) {
    TraceEvent E;
    E.Op = Op;
    E.Id = Id;
    E.Size = Size;
    E.OldSize = OldSize;
    E.Alignment = Alignment;
    E.IsWrite = IsWrite;
    Writer.append(E);
  };
  for (int Tx = 0; Tx < Transactions; ++Tx) {
    uint32_t Base = static_cast<uint32_t>(Tx) * 100;
    for (uint32_t I = 0; I < 20; ++I)
      Emit(TraceOp::Alloc, Base + I, 17 + 37 * I + (I % 3 ? 0 : 70000), 0, 0,
           false);
    Emit(TraceOp::Calloc, Base + 20, 256, 0, 0, false);
    Emit(TraceOp::AllocAligned, Base + 21, 4096, 0, 64, false);
    for (uint32_t I = 0; I < 20; I += 2)
      Emit(TraceOp::Touch, Base + I, 0, 0, 0, I % 4 == 0);
    Emit(TraceOp::Realloc, Base + 3, 4000, 17 + 37 * 3, 0, false);
    Emit(TraceOp::Work, 0, 12345 + Tx, 0, 0, false);
    Emit(TraceOp::StateTouch, 0, 150000 + 13 * Tx, 0, 0, Tx % 2 == 0);
    for (uint32_t I = 0; I < 22; ++I)
      Emit(TraceOp::Free, Base + I, 0, 0, 0, false);
    Emit(TraceOp::EndTx, 0, 0, 0, 0, false);
  }
  EXPECT_TRUE(Writer.finish().ok());
  return slurp(Path);
}

/// Drains \p In completely; returns decoded events and the final status.
std::vector<TraceEvent> drain(TraceInput &In, TraceStatus &Status) {
  std::vector<TraceEvent> Events;
  TraceEventSpan Span;
  TraceInput::Next R;
  while ((R = In.nextBatch(Span)) == TraceInput::Next::Event)
    Events.insert(Events.end(), Span.begin(), Span.end());
  Status = In.status();
  return Events;
}

void expectSameEvents(const std::vector<TraceEvent> &A,
                      const std::vector<TraceEvent> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Op, B[I].Op) << "event " << I;
    EXPECT_EQ(A[I].Id, B[I].Id) << "event " << I;
    EXPECT_EQ(A[I].Size, B[I].Size) << "event " << I;
    EXPECT_EQ(A[I].OldSize, B[I].OldSize) << "event " << I;
    EXPECT_EQ(A[I].Alignment, B[I].Alignment) << "event " << I;
    EXPECT_EQ(A[I].IsWrite, B[I].IsWrite) << "event " << I;
  }
}

/// Both sources over \p Path: same events, same diagnostic, same number
/// of events delivered ahead of any error.
void expectParity(const std::string &Path) {
  TraceReader Stream;
  ASSERT_TRUE(Stream.open(Path).ok()) << Path;
  TraceStatus StreamStatus;
  std::vector<TraceEvent> StreamEvents = drain(Stream, StreamStatus);

  TraceReader Mapped;
  ASSERT_TRUE(Mapped.open(Path, TraceReaderKind::Mapped).ok()) << Path;
  TraceStatus MappedStatus;
  std::vector<TraceEvent> MappedEvents = drain(Mapped, MappedStatus);

  EXPECT_EQ(StreamStatus.describe(), MappedStatus.describe()) << Path;
  expectSameEvents(StreamEvents, MappedEvents);
}

TEST(MappedReaderTest, ParityOnFullOpMix) {
  std::string Path = tempPath("parity_full");
  makeFullTrace(Path);
  expectParity(Path);

  TraceReader Mapped;
  ASSERT_TRUE(Mapped.open(Path, TraceReaderKind::Mapped).ok());
  EXPECT_STREQ(Mapped.readerName(), "mmap");
  EXPECT_EQ(Mapped.meta().Workload, "synthetic");
  EXPECT_EQ(Mapped.meta().Seed, 11u);
  std::remove(Path.c_str());
}

TEST(MappedReaderTest, ParityOnLargeMultiBlockTrace) {
  // ~50 transactions of ~70 events: several 64 KiB frames, so the
  // mapped reader crosses block boundaries mid-span and the delta
  // decoder state (PrevAllocId, PrevWork) must survive the crossing.
  std::string Path = tempPath("parity_large");
  makeFullTrace(Path, 50);
  expectParity(Path);
  std::remove(Path.c_str());
}

TEST(MappedReaderTest, AutoPicksMmapForRegularFiles) {
  std::string Path = tempPath("auto_regular");
  makeFullTrace(Path);
  TraceStatus S;
  std::unique_ptr<TraceInput> In =
      openTraceInput(Path, TraceReaderKind::Auto, S);
  ASSERT_NE(In, nullptr) << S.describe();
  EXPECT_STREQ(In->readerName(), "mmap");
  std::remove(Path.c_str());
}

TEST(MappedReaderTest, AutoFallsBackToStreamingForFifos) {
  std::string Regular = tempPath("fifo_src");
  std::string Bytes = makeFullTrace(Regular);
  std::string Fifo = testing::TempDir() + "ddm_mapped_fifo";
  std::remove(Fifo.c_str());
  ASSERT_EQ(mkfifo(Fifo.c_str(), 0600), 0) << strerror(errno);

  // Forcing mmap onto a FIFO must fail up front, before any open(2)
  // blocks on the unconnected pipe.
  {
    TraceStatus S;
    std::unique_ptr<TraceInput> In =
        openTraceInput(Fifo, TraceReaderKind::Mapped, S);
    EXPECT_EQ(In, nullptr);
    EXPECT_FALSE(S.ok());
  }

  std::thread Writer([&] {
    FILE *F = fopen(Fifo.c_str(), "wb");
    if (!F)
      return;
    fwrite(Bytes.data(), 1, Bytes.size(), F);
    fclose(F);
  });
  TraceStatus S;
  std::unique_ptr<TraceInput> In =
      openTraceInput(Fifo, TraceReaderKind::Auto, S);
  ASSERT_NE(In, nullptr) << S.describe();
  EXPECT_STREQ(In->readerName(), "stream");
  TraceStatus End;
  std::vector<TraceEvent> FifoEvents = drain(*In, End);
  EXPECT_TRUE(End.ok()) << End.describe();
  Writer.join();

  TraceReader Stream;
  ASSERT_TRUE(Stream.open(Regular).ok());
  TraceStatus StreamStatus;
  expectSameEvents(drain(Stream, StreamStatus), FifoEvents);
  std::remove(Fifo.c_str());
  std::remove(Regular.c_str());
}

TEST(MappedReaderTest, RejectsNonTraces) {
  std::string Path = tempPath("not_a_trace");
  for (const std::string &Bytes :
       {std::string(), std::string("short"),
        std::string("garbage-not-a-trace-header-at-all")}) {
    spit(Path, Bytes);
    TraceReader Reader;
    EXPECT_FALSE(Reader.open(Path, TraceReaderKind::Mapped).ok())
        << "bytes: " << Bytes.size();
  }
  std::remove(Path.c_str());
}

TEST(MappedReaderTest, RejectsFutureVersion) {
  std::string Path = tempPath("future_version");
  std::string Bytes = makeFullTrace(Path);
  Bytes[8] = 99; // version u32le follows the 8-byte magic
  spit(Path, Bytes);
  TraceReader Reader;
  TraceStatus S = Reader.open(Path, TraceReaderKind::Mapped);
  EXPECT_FALSE(S.ok());
  EXPECT_NE(S.Message.find("version"), std::string::npos) << S.describe();
  std::remove(Path.c_str());
}

TEST(MappedReaderTest, TornFinalFrameIsTruncationNotSilence) {
  std::string Path = tempPath("torn");
  std::string Bytes = makeFullTrace(Path);
  // Chop mid-frame at several depths: each must surface as an error on
  // both readers, never a clean End.
  for (size_t Cut : {Bytes.size() - 1, Bytes.size() - 7, Bytes.size() / 2}) {
    spit(Path, Bytes.substr(0, Cut));
    TraceReader Mapped;
    ASSERT_TRUE(Mapped.open(Path, TraceReaderKind::Mapped).ok());
    TraceStatus MappedStatus;
    std::vector<TraceEvent> MappedEvents = drain(Mapped, MappedStatus);
    EXPECT_FALSE(MappedStatus.ok()) << "cut at " << Cut;

    TraceReader Stream;
    ASSERT_TRUE(Stream.open(Path).ok());
    TraceStatus StreamStatus;
    std::vector<TraceEvent> StreamEvents = drain(Stream, StreamStatus);
    EXPECT_FALSE(StreamStatus.ok()) << "cut at " << Cut;
    EXPECT_EQ(StreamStatus.describe(), MappedStatus.describe());
    expectSameEvents(StreamEvents, MappedEvents);
  }
  std::remove(Path.c_str());
}

TEST(MappedReaderTest, CrcFlipIsDetected) {
  std::string Path = tempPath("crcflip");
  std::string Bytes = makeFullTrace(Path);
  std::string Flipped = Bytes;
  Flipped[Flipped.size() - 3] ^= 0x40; // inside the last frame's payload
  spit(Path, Flipped);

  TraceReader Mapped;
  ASSERT_TRUE(Mapped.open(Path, TraceReaderKind::Mapped).ok());
  TraceStatus MappedStatus;
  std::vector<TraceEvent> MappedEvents = drain(Mapped, MappedStatus);
  EXPECT_FALSE(MappedStatus.ok());
  EXPECT_NE(MappedStatus.Message.find("CRC"), std::string::npos)
      << MappedStatus.describe();

  // Prefix delivery order: every event of the earlier, intact frames is
  // still delivered, and matches the streaming reader's prefix.
  TraceReader Stream;
  ASSERT_TRUE(Stream.open(Path).ok());
  TraceStatus StreamStatus;
  std::vector<TraceEvent> StreamEvents = drain(Stream, StreamStatus);
  EXPECT_FALSE(StreamStatus.ok());
  EXPECT_EQ(StreamStatus.describe(), MappedStatus.describe());
  expectSameEvents(StreamEvents, MappedEvents);
  std::remove(Path.c_str());
}

TEST(MappedReaderTest, GarbageInsideValidCrcFrameIsRejected) {
  std::string Path = tempPath("garbage_payload");
  std::string Bytes = makeFullTrace(Path);
  // Find the first event frame (the frame after the meta frame), stomp
  // its payload with invalid tags, and re-seal the CRC so the framing
  // layer accepts it — the decoder itself must reject.
  size_t HeaderLen = 12; // magic + version
  size_t MetaLen = 0;
  std::memcpy(&MetaLen, Bytes.data() + HeaderLen, 4);
  size_t Frame = HeaderLen + 12 + MetaLen;
  uint32_t PayloadLen = 0;
  std::memcpy(&PayloadLen, Bytes.data() + Frame, 4);
  ASSERT_GT(PayloadLen, 0u);
  std::string Broken = Bytes;
  for (size_t I = 0; I < PayloadLen; ++I)
    Broken[Frame + 12 + I] = static_cast<char>(0xEE); // invalid tag
  uint32_t NewCrc = crc32(Broken.data() + Frame + 12, PayloadLen);
  std::memcpy(&Broken[Frame + 8], &NewCrc, 4);
  spit(Path, Broken);

  TraceReader Mapped;
  ASSERT_TRUE(Mapped.open(Path, TraceReaderKind::Mapped).ok());
  TraceStatus MappedStatus;
  std::vector<TraceEvent> MappedEvents = drain(Mapped, MappedStatus);
  EXPECT_FALSE(MappedStatus.ok());

  TraceReader Stream;
  ASSERT_TRUE(Stream.open(Path).ok());
  TraceStatus StreamStatus;
  std::vector<TraceEvent> StreamEvents = drain(Stream, StreamStatus);
  EXPECT_FALSE(StreamStatus.ok());
  EXPECT_EQ(StreamStatus.describe(), MappedStatus.describe());
  expectSameEvents(StreamEvents, MappedEvents);
  std::remove(Path.c_str());
}

TEST(MappedReaderTest, TrailingGarbageAfterFinalFrame) {
  std::string Path = tempPath("trailing");
  std::string Bytes = makeFullTrace(Path);
  spit(Path, Bytes + std::string(5, '\x7f'));
  TraceReader Mapped;
  ASSERT_TRUE(Mapped.open(Path, TraceReaderKind::Mapped).ok());
  TraceStatus MappedStatus;
  drain(Mapped, MappedStatus);
  EXPECT_FALSE(MappedStatus.ok());

  TraceReader Stream;
  ASSERT_TRUE(Stream.open(Path).ok());
  TraceStatus StreamStatus;
  drain(Stream, StreamStatus);
  EXPECT_FALSE(StreamStatus.ok());
  EXPECT_EQ(StreamStatus.describe(), MappedStatus.describe());
  std::remove(Path.c_str());
}

} // namespace
