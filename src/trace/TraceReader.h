//===- trace/TraceReader.h - Trace file reader -----------------*- C++ -*-===//
///
/// \file
/// The one reader of `.ddmtrc` containers. It has two byte sources:
///
///  - mmap: a seekable regular file is mapped read-only and every frame is
///    CRC-checked and decoded in place, with no per-frame copy;
///  - read(): anything else (pipes, FIFOs, /dev/stdin, or a file whose
///    mmap failed) is read() one frame at a time into a grow-only block
///    buffer, so arbitrarily large traces read in O(1) space.
///
/// Everything past "give me the next N bytes" is shared. One frame
/// loader (loadFrame) checks the header, the TraceMaxBlockBytes limit,
/// truncation, the CRC-32, the declared event count and trailing bytes,
/// for the meta frame and for every event frame. One threaded-code block
/// decoder (TraceDecodeLoop.inc) turns a CRC-verified payload into
/// events, and hands block tails and malformed input to
/// TraceEventDecoder::decode, the single careful decoder. A trace is
/// therefore accepted or rejected identically, with the same diagnostic
/// text, byte offset and event index, whichever source reads it.
///
/// A reader is consumed through exactly one of three interfaces:
///
///  - decodeInto() runs a consumer's per-op handlers inside the decode
///    loop, with no decoded event stored; the replayer uses it;
///  - nextBatch() hands out spans of at most BatchCap events: a full
///    64 KiB block would be ~20k events = 736 KiB of output, which turns
///    every store into DRAM traffic, while a capped span keeps producer
///    stores and consumer loads in L1;
///  - next() is a per-event cursor over the same spans (the interface
///    TraceTransform uses).
///
/// All corruption (bad magic, unsupported version, truncated frame, CRC
/// mismatch, malformed varint, event-count lies) surfaces as a
/// TraceStatus diagnostic carrying the byte offset and event index —
/// never an exception or abort.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_TRACE_TRACEREADER_H
#define DDM_TRACE_TRACEREADER_H

#include "trace/TraceCodec.h"
#include "trace/TraceEvent.h"
#include "trace/TraceFormat.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ddm {

/// A run of consecutive decoded events, valid until the producing
/// reader's next nextBatch() call (or its destruction).
struct TraceEventSpan {
  const TraceEvent *Data = nullptr;
  size_t Size = 0;

  bool empty() const { return Size == 0; }
  const TraceEvent *begin() const { return Data; }
  const TraceEvent *end() const { return Data + Size; }
};

/// Which byte source a reader uses.
enum class TraceReaderKind {
  Auto,      ///< mmap for seekable regular files, read() otherwise.
  Streaming, ///< Force read() (works on regular files too).
  Mapped,    ///< Force mmap (fails on non-regular files).
};

/// Parses a --reader flag value ("auto", "stream", "mmap"). Returns false
/// on an unknown name.
bool traceReaderKindFromName(const std::string &Name, TraceReaderKind &Kind);

/// The canonical name of a kind ("auto", "stream", "mmap").
const char *traceReaderKindName(TraceReaderKind Kind);

class TraceReader {
public:
  /// Outcome of next() and nextBatch().
  enum class Next {
    Event, ///< An event (or a non-empty span of events) was produced.
    End,   ///< Clean end of trace (EOF on a frame boundary).
    Error, ///< Malformed input; see status().
  };

  TraceReader() = default;
  ~TraceReader();

  TraceReader(const TraceReader &) = delete;
  TraceReader &operator=(const TraceReader &) = delete;

  /// Opens \p Path and validates the header and meta frame. \p Kind picks
  /// the byte source; the default reads through read() on any file.
  TraceStatus open(const std::string &Path,
                   TraceReaderKind Kind = TraceReaderKind::Streaming);

  /// Provenance decoded from the meta frame (valid after open()).
  const TraceMeta &meta() const { return Meta; }

  /// Container format version of the open file (valid after open()).
  uint32_t version() const { return Version; }

  /// Decodes the next event into \p E.
  Next next(TraceEvent &E);

  /// Produces the next span of decoded events. On a decode failure past a
  /// valid prefix of a block, the prefix is delivered first and the error
  /// surfaces on the following call — exactly the order a per-event
  /// consumer observes.
  Next nextBatch(TraceEventSpan &Span);

  /// Decodes events straight into \p Consumer's handlers (the consumer
  /// interface is in TraceDecodeLoop.inc, which defines this template and
  /// must be included to instantiate it) until a handler returns false
  /// (Event), the trace ends cleanly (End) or it is malformed (Error; see
  /// status()). Every event before a failure reaches the consumer first.
  template <typename ConsumerT> Next decodeInto(ConsumerT &Consumer);

  /// The diagnostic of the first failure (success-valued otherwise).
  const TraceStatus &status() const { return Status; }

  /// File offset of the frame currently being decoded (diagnostics).
  uint64_t byteOffset() const { return FrameOffset; }

  /// "stream" or "mmap": the byte source, for diagnostics and bench labels.
  const char *readerName() const { return Base ? "mmap" : "stream"; }

private:
  enum class Load { Frame, End, Error };
  Load loadFrame();
  /// The per-source step: the next \p N bytes of the file, as a pointer
  /// into the mapping or read() into \p Buf. \p Got is short only at EOF
  /// (or on a read error, which surfaces as truncation).
  const char *fetch(size_t N, char *Buf, size_t &Got);
  TraceStatus fail(std::string Message);

  /// Span cap per nextBatch(): 1024 events x 32 bytes = one L1 data
  /// cache's worth. Larger spans cost more in cache misses than they
  /// save in per-call overhead.
  static constexpr size_t BatchCap = 1024;

  int Fd = -1;                ///< read() source (-1 when mapped).
  const char *Base = nullptr; ///< mmap source (nullptr when reading).
  size_t MapSize = 0;         ///< Mapped length in bytes.
  std::unique_ptr<char[]> Block; ///< read() frame storage (grow-only).
  size_t BlockCap = 0;           ///< Allocated bytes of Block.

  uint64_t FileOffset = 0;  ///< Bytes consumed from the file so far.
  uint64_t FrameOffset = 0; ///< File offset of the current frame header.
  uint64_t EventIdx = 0;    ///< Events decoded so far.

  TraceMeta Meta;
  uint32_t Version = TraceVersion;
  TraceStatus Status;
  bool Done = false;

  /// Decoder state persists across blocks (blocks are a framing unit, not
  /// a seek unit).
  TraceEventDecoder Decoder;

  /// Decode cursor within the current (CRC-verified) frame payload; a
  /// frame is decoded across as many nextBatch() calls as it needs.
  const uint8_t *FrameP = nullptr;
  const uint8_t *FrameEnd = nullptr;
  uint32_t FrameEventsLeft = 0;

  std::vector<TraceEvent> Batch; ///< Reused decode target.

  /// A decode failure past a valid block prefix: the prefix span is
  /// delivered first, this status second (matching per-event order).
  bool HavePending = false;
  TraceStatus PendingStatus;

  /// next()'s position within the last span nextBatch() produced.
  TraceEventSpan Cursor;
  size_t CursorPos = 0;
};

/// Opens \p Path with a reader of the requested kind. Returns nullptr and
/// fills \p Status on failure; on success the header and meta frame are
/// already validated.
std::unique_ptr<TraceReader> openTraceInput(const std::string &Path,
                                            TraceReaderKind Kind,
                                            TraceStatus &Status);

} // namespace ddm

#endif // DDM_TRACE_TRACEREADER_H
