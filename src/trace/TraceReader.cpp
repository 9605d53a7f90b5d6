//===- trace/TraceReader.cpp - Trace file reader --------------------------===//

#include "trace/TraceReader.h"

#include "support/Crc32.h"

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <limits>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace ddm;

// nextBatch()'s consumer composes each event as four 64-bit words and
// stores all 32 bytes at once; that packing is only valid against this
// exact field layout (little-endian builds only — big-endian falls back
// to field-wise stores).
#if __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
static_assert(sizeof(TraceEvent) == 32, "TraceEvent layout changed");
static_assert(offsetof(TraceEvent, Id) == 4 &&
                  offsetof(TraceEvent, Size) == 8 &&
                  offsetof(TraceEvent, OldSize) == 16 &&
                  offsetof(TraceEvent, Alignment) == 24 &&
                  offsetof(TraceEvent, IsWrite) == 28,
              "TraceEvent layout changed");
#endif

// Defines decodeBlock() and decodeInto(): the one block decoder, for both
// byte sources and every consumer.
#include "trace/TraceDecodeLoop.inc"

namespace {

/// Little-endian u32 load at an arbitrary (possibly unaligned) offset.
inline uint32_t loadU32(const char *P) {
  uint32_t V;
  __builtin_memcpy(&V, P, sizeof(V));
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  V = __builtin_bswap32(V);
#endif
  return V;
}

/// nextBatch()'s consumer: stores each event into the span.
struct SpanFill {
  TraceEvent *Out;

  /// One 32-byte writeback. The four words mirror the exact TraceEvent
  /// field layout (static_asserts above): W0 packs Op and Id, W1 is Size,
  /// W2 is OldSize, W3 packs Alignment and IsWrite.
  void put(TraceOp Op, uint32_t Id, uint64_t Size, uint64_t OldSize,
           uint32_t Alignment, bool IsWrite) {
#if __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    uint64_t W0 = static_cast<uint64_t>(Op) | uint64_t(Id) << 32;
    uint64_t W3 = Alignment | uint64_t(IsWrite) << 32;
    char *B = reinterpret_cast<char *>(Out);
    __builtin_memcpy(B, &W0, 8);
    __builtin_memcpy(B + 8, &Size, 8);
    __builtin_memcpy(B + 16, &OldSize, 8);
    __builtin_memcpy(B + 24, &W3, 8);
#else
    Out->Op = Op;
    Out->Id = Id;
    Out->Size = Size;
    Out->OldSize = OldSize;
    Out->Alignment = Alignment;
    Out->IsWrite = IsWrite;
#endif
    ++Out;
  }
  bool alloc(uint32_t Id, uint64_t Size, uint32_t Alignment, bool W) {
    put(TraceOp::Alloc, Id, Size, 0, Alignment, W);
    return true;
  }
  bool calloc(uint32_t Id, uint64_t Size) {
    put(TraceOp::Calloc, Id, Size, 0, 0, false);
    return true;
  }
  bool allocAligned(uint32_t Id, uint64_t Size, uint32_t Alignment) {
    put(TraceOp::AllocAligned, Id, Size, 0, Alignment, false);
    return true;
  }
  bool free(uint32_t Id, bool W) {
    put(TraceOp::Free, Id, 0, 0, 0, W);
    return true;
  }
  bool realloc(uint32_t Id, uint64_t OldSize, uint64_t Size, bool W) {
    put(TraceOp::Realloc, Id, Size, OldSize, 0, W);
    return true;
  }
  bool touch(uint32_t Id, bool W) {
    put(TraceOp::Touch, Id, 0, 0, 0, W);
    return true;
  }
  bool work(uint64_t Instructions, bool W) {
    put(TraceOp::Work, 0, Instructions, 0, 0, W);
    return true;
  }
  bool stateTouch(uint64_t Offset, bool W) {
    put(TraceOp::StateTouch, 0, Offset, 0, 0, W);
    return true;
  }
  bool endTx(bool W) {
    put(TraceOp::EndTx, 0, 0, 0, 0, W);
    return true;
  }
};

} // namespace

bool ddm::traceReaderKindFromName(const std::string &Name,
                                  TraceReaderKind &Kind) {
  if (Name == "auto")
    Kind = TraceReaderKind::Auto;
  else if (Name == "stream" || Name == "streaming")
    Kind = TraceReaderKind::Streaming;
  else if (Name == "mmap" || Name == "mapped")
    Kind = TraceReaderKind::Mapped;
  else
    return false;
  return true;
}

const char *ddm::traceReaderKindName(TraceReaderKind Kind) {
  switch (Kind) {
  case TraceReaderKind::Auto:
    return "auto";
  case TraceReaderKind::Streaming:
    return "stream";
  case TraceReaderKind::Mapped:
    return "mmap";
  }
  return "auto";
}

std::unique_ptr<TraceReader> ddm::openTraceInput(const std::string &Path,
                                                 TraceReaderKind Kind,
                                                 TraceStatus &Status) {
  auto Reader = std::make_unique<TraceReader>();
  Status = Reader->open(Path, Kind);
  return Status.ok() ? std::move(Reader) : nullptr;
}

TraceReader::~TraceReader() {
  if (Base && MapSize) // zero-byte files carry a static placeholder base
    munmap(const_cast<char *>(Base), MapSize);
  if (Fd >= 0)
    ::close(Fd);
}

TraceStatus TraceReader::fail(std::string Message) {
  Status = TraceStatus::error(std::move(Message), FrameOffset, EventIdx);
  Done = true;
  return Status;
}

const char *TraceReader::fetch(size_t N, char *Buf, size_t &Got) {
  if (Base) {
    Got = std::min<uint64_t>(N, MapSize - FileOffset);
    const char *Data = Base + FileOffset;
    FileOffset += Got;
    return Data;
  }
  Got = 0;
  while (Got < N) {
    ssize_t R = ::read(Fd, Buf + Got, N - Got);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      break; // surfaces as a truncation diagnostic at the caller
    }
    if (R == 0)
      break;
    Got += static_cast<size_t>(R);
  }
  FileOffset += Got;
  return Buf;
}

TraceStatus TraceReader::open(const std::string &Path, TraceReaderKind Kind) {
  if (Fd >= 0 || Base)
    return TraceStatus::error("trace reader is already open");
  Status = TraceStatus::success();
  Done = false;
  // O_NONBLOCK when mmap is forced: a no-op for the regular files it
  // accepts, but it keeps open(2) from blocking forever on a writer-less
  // FIFO, so the not-a-regular-file diagnostic is reachable for any path.
  // Auto must block: a FIFO it reads through read() needs its writer.
  Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC |
                                (Kind == TraceReaderKind::Mapped ? O_NONBLOCK
                                                                 : 0));
  if (Fd < 0)
    return fail("cannot open '" + Path + "': " + std::strerror(errno));

  struct stat St;
  if (Kind != TraceReaderKind::Streaming && fstat(Fd, &St) == 0 &&
      S_ISREG(St.st_mode)) {
    MapSize = static_cast<size_t>(St.st_size);
    if (MapSize == 0) {
      // A zero-byte file cannot be mapped; give it a non-null base so
      // fetch() produces the normal truncation diagnostics.
      static const char EmptyBase = 0;
      Base = &EmptyBase;
    } else {
      int Flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
      Flags |= MAP_POPULATE; // batch the page faults up front
#endif
      void *Map = mmap(nullptr, MapSize, PROT_READ, Flags, Fd, 0);
      if (Map != MAP_FAILED) {
        Base = static_cast<const char *>(Map);
        // Best-effort: traces are decoded front to back exactly once.
        madvise(Map, MapSize, MADV_SEQUENTIAL);
      } else if (Kind == TraceReaderKind::Mapped) {
        TraceStatus S = fail("cannot mmap '" + Path +
                             "': " + std::strerror(errno));
        ::close(Fd);
        Fd = -1;
        return S;
      }
      // Under Auto a refused mmap falls through to read().
    }
    if (Base) {
      ::close(Fd); // the mapping keeps the pages alive
      Fd = -1;
    }
  } else if (Kind == TraceReaderKind::Mapped) {
    ::close(Fd);
    Fd = -1;
    return fail("'" + Path +
                "' is not a seekable regular file; use the streaming reader");
  }

  char Buf[sizeof(TraceMagic) + 4];
  size_t Got;
  const char *Header = fetch(sizeof(Buf), Buf, Got);
  if (Got != sizeof(Buf))
    return fail("file too short for trace header");
  if (std::memcmp(Header, TraceMagic, sizeof(TraceMagic)) != 0)
    return fail("bad magic: not a ddm trace file");
  Version = loadU32(Header + sizeof(TraceMagic));
  if (Version < TraceVersionMin || Version > TraceVersion)
    return fail("unsupported trace version " + std::to_string(Version) +
                " (reader supports " + std::to_string(TraceVersionMin) +
                ".." + std::to_string(TraceVersion) + ")");
  Decoder = TraceEventDecoder(Version);

  // The first frame is always metadata (event-count 0).
  switch (loadFrame()) {
  case Load::End:
    return fail("missing metadata frame");
  case Load::Error:
    return Status;
  case Load::Frame:
    break;
  }
  if (FrameEventsLeft != 0)
    return fail("first frame is not a metadata frame");
  std::string Error;
  if (!decodeTraceMeta(reinterpret_cast<const char *>(FrameP),
                       static_cast<size_t>(FrameEnd - FrameP), Meta, Error))
    return fail("bad metadata frame: " + Error);
  FrameP = FrameEnd; // consumed
  return Status;
}

TraceReader::Load TraceReader::loadFrame() {
  // The finished frame (or a 0-event frame) must not hold payload its
  // declared event count never consumed.
  if (FrameP != FrameEnd) {
    fail("frame payload has " + std::to_string(FrameEnd - FrameP) +
         " trailing bytes beyond its declared events");
    return Load::Error;
  }
  FrameOffset = FileOffset;
  char Buf[12];
  size_t Got;
  const char *Header = fetch(sizeof(Buf), Buf, Got);
  if (Got == 0)
    return Load::End; // clean EOF: only legal on a frame boundary
  if (Got != sizeof(Buf)) {
    fail("truncated frame header");
    return Load::Error;
  }
  uint32_t PayloadLen = loadU32(Header);
  uint32_t EventCount = loadU32(Header + 4);
  uint32_t Crc = loadU32(Header + 8);
  if (PayloadLen > TraceMaxBlockBytes) {
    fail("frame claims " + std::to_string(PayloadLen) +
         " payload bytes (limit " + std::to_string(TraceMaxBlockBytes) + ")");
    return Load::Error;
  }
  if (!Base && PayloadLen > BlockCap) {
    // Fresh uninitialized storage: the frame is read() straight into it
    // and decoded in place, so zero-filling or copying the old contents
    // would both be pure waste.
    Block.reset(new char[PayloadLen]);
    BlockCap = PayloadLen;
  }
  const char *Payload = fetch(PayloadLen, Block.get(), Got);
  if (Got != PayloadLen) {
    fail("truncated frame payload (declared " + std::to_string(PayloadLen) +
         " bytes)");
    return Load::Error;
  }
  if (crc32(Payload, PayloadLen) != Crc) {
    fail("CRC-32 mismatch: frame payload is corrupted");
    return Load::Error;
  }
  FrameP = reinterpret_cast<const uint8_t *>(Payload);
  FrameEnd = FrameP + PayloadLen;
  FrameEventsLeft = EventCount;
  return Load::Frame;
}

TraceReader::Next TraceReader::nextBatch(TraceEventSpan &Span) {
  Span = TraceEventSpan();
  if (Done)
    return Status.ok() ? Next::End : Next::Error;
  if (HavePending) {
    // The error that followed the previously delivered block prefix.
    HavePending = false;
    Status = PendingStatus;
    Done = true;
    return Next::Error;
  }

  // Genuinely empty frames (0 events over 0 bytes) are skipped rather
  // than surfaced as empty spans; one frame spans as many calls as it
  // needs at BatchCap events each.
  while (FrameEventsLeft == 0) {
    switch (loadFrame()) {
    case Load::End:
      Done = true;
      return Next::End;
    case Load::Error:
      return Next::Error;
    case Load::Frame:
      break;
    }
  }

  uint32_t Want = std::min<uint32_t>(FrameEventsLeft, BatchCap);
  if (Batch.size() < Want)
    Batch.resize(Want);
  SpanFill Fill{Batch.data()};
  uint32_t Decoded;
  tracedecode::BlockEnd How = tracedecode::decodeBlock(
      FrameP, static_cast<size_t>(FrameEnd - FrameP), Want, Decoder, Fill,
      FrameP, Decoded);
  FrameEventsLeft -= Decoded;
  if (How == tracedecode::BlockEnd::Malformed) {
    TraceStatus Bad = TraceStatus::error(Decoder.errorMessage(), FrameOffset,
                                         EventIdx + Decoded);
    if (Decoded == 0) {
      Status = std::move(Bad);
      Done = true;
      return Next::Error;
    }
    HavePending = true;
    PendingStatus = std::move(Bad);
  }
  EventIdx += Decoded;
  Span.Data = Batch.data();
  Span.Size = Decoded;
  return Next::Event;
}

TraceReader::Next TraceReader::next(TraceEvent &E) {
  if (CursorPos == Cursor.Size) {
    TraceEventSpan Span;
    Next R = nextBatch(Span);
    if (R != Next::Event)
      return R;
    Cursor = Span;
    CursorPos = 0;
  }
  E = Cursor.Data[CursorPos++];
  return Next::Event;
}
