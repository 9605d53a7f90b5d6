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

// The hot loop composes each event as four 64-bit words and stores all
// 32 bytes at once; that packing is only valid against this exact field
// layout (little-endian builds only — big-endian falls back to
// field-wise stores).
#if __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
static_assert(sizeof(TraceEvent) == 32, "TraceEvent layout changed");
static_assert(offsetof(TraceEvent, Id) == 4 &&
                  offsetof(TraceEvent, Size) == 8 &&
                  offsetof(TraceEvent, OldSize) == 16 &&
                  offsetof(TraceEvent, Alignment) == 24 &&
                  offsetof(TraceEvent, IsWrite) == 28,
              "TraceEvent layout changed");
#endif

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

constexpr uint8_t OpMask = 0x07;

/// Unchecked-bounds varint for the hot loop: callers guarantee at least
/// MaxEventBytes of readable payload past P (the SafeEnd margin), so only
/// the *content* rules remain — over-long >10-byte encodings and 64-bit
/// overflow are rejected exactly as readVarint() rejects them.
inline bool rawVarint(const uint8_t *&P, uint64_t &V) {
  // The first four lengths are unrolled straight-line: the byte loads are
  // independent of each other (only the final P bump is serial), where a
  // byte-at-a-time loop chains every iteration through V and the shift
  // counter. Work deltas and sizes live in the 2..4-byte range.
  uint64_t B0 = P[0];
  if (!(B0 & 0x80)) {
    V = B0;
    P += 1;
    return true;
  }
  uint64_t B1 = P[1];
  if (!(B1 & 0x80)) {
    V = (B0 & 0x7F) | B1 << 7;
    P += 2;
    return true;
  }
  uint64_t B2 = P[2];
  if (!(B2 & 0x80)) {
    V = (B0 & 0x7F) | (B1 & 0x7F) << 7 | B2 << 14;
    P += 3;
    return true;
  }
  uint64_t B3 = P[3];
  if (!(B3 & 0x80)) {
    V = (B0 & 0x7F) | (B1 & 0x7F) << 7 | (B2 & 0x7F) << 14 | B3 << 21;
    P += 4;
    return true;
  }
  V = (B0 & 0x7F) | (B1 & 0x7F) << 7 | (B2 & 0x7F) << 14 | (B3 & 0x7F) << 21;
  P += 4;
  uint64_t Byte;
  unsigned Shift = 28;
  do {
    Byte = *P++;
    if (Shift == 63 && (Byte & 0x7E))
      return false; // overflows 64 bits
    if (Shift >= 63 && (Byte & 0x80))
      return false; // over-long encoding
    V |= (Byte & 0x7F) << Shift;
    Shift += 7;
  } while (Byte & 0x80);
  return true;
}

inline bool rawZigzag(const uint8_t *&P, int64_t &V) {
  uint64_t Raw;
  if (!rawVarint(P, Raw))
    return false;
  V = static_cast<int64_t>((Raw >> 1) ^ (~(Raw & 1) + 1));
  return true;
}

/// Largest possible encoded event: 1 tag byte + three 10-byte varints
/// (realloc: id delta, old size, new size). The hot loop runs while at
/// least this many bytes remain, so it needs no per-byte bounds checks.
constexpr size_t MaxEventBytes = 32;

// Defines decodeBlock(): the one block decoder, for both byte sources.
#include "trace/TraceDecodeLoop.inc"

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

  size_t Want = std::min<size_t>(FrameEventsLeft, BatchCap);
  if (Batch.size() < Want)
    Batch.resize(Want);
  size_t Decoded = decodeBlock(FrameP, static_cast<size_t>(FrameEnd - FrameP),
                               static_cast<uint32_t>(Want), Decoder,
                               Batch.data(), FrameP);
  FrameEventsLeft -= static_cast<uint32_t>(Decoded);
  if (Decoded < Want) {
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
