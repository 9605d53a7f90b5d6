//===- trace/TraceCodec.h - Varint + delta event encoding ------*- C++ -*-===//
///
/// \file
/// The event-level encoding inside a trace block. Integers are LEB128
/// varints; signed deltas are zigzag-folded first. Three delta streams
/// keep typical events at 1-3 bytes:
///
///  - allocation ids are encoded relative to the previous allocation id
///    (+1 is the common case: ids are sequential within a transaction);
///  - free/realloc/touch ids are encoded relative to the last allocated
///    id (web objects die young, so the distance is small);
///  - work instruction counts are encoded as a delta from the previous
///    work event (the per-step compute is near constant).
///
/// The encoder and decoder hold identical state machines; EndTx resets
/// the id streams because object ids restart at zero each transaction.
/// Block boundaries do NOT reset state — blocks are a framing/integrity
/// unit, not a seek unit; traces are always streamed from the start.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_TRACE_TRACECODEC_H
#define DDM_TRACE_TRACECODEC_H

#include "trace/TraceEvent.h"
#include "trace/TraceFormat.h"

#include <cstddef>
#include <string>

namespace ddm {

/// \name Primitive encoders (appended to a byte buffer).
/// @{
void appendVarint(std::string &Out, uint64_t Value);
void appendZigzag(std::string &Out, int64_t Value);
void appendU32(std::string &Out, uint32_t Value); ///< Fixed 4-byte LE.
void appendU64(std::string &Out, uint64_t Value); ///< Fixed 8-byte LE.
/// @}

/// \name Primitive decoders over [Data, Data+Size) at \p Pos.
/// All return false (leaving \p Pos unspecified) on a truncated or
/// over-long (>10 byte) varint.
/// @{
bool readVarint(const char *Data, size_t Size, size_t &Pos, uint64_t &Value);
bool readZigzag(const char *Data, size_t Size, size_t &Pos, int64_t &Value);
bool readU32(const char *Data, size_t Size, size_t &Pos, uint32_t &Value);
bool readU64(const char *Data, size_t Size, size_t &Pos, uint64_t &Value);
/// @}

/// Stateful event encoder; one instance per written trace.
class TraceEventEncoder {
public:
  /// Appends the encoding of \p E to \p Out.
  void encode(const TraceEvent &E, std::string &Out);

private:
  int64_t PrevAllocId = -1;
  int64_t PrevWork = 0;
};

/// Stateful event decoder; mirrors TraceEventEncoder exactly. \p Version
/// is the container version being decoded: v2-only event kinds (Calloc,
/// AllocAligned) appearing in a v1 trace are rejected as malformed. The
/// reader's block decoder resumes a decoder mid-stream from its delta
/// state (\p PrevAllocId, \p PrevWork) for block tails and bad input.
class TraceEventDecoder {
public:
  explicit TraceEventDecoder(uint32_t Version = TraceVersion,
                             int64_t PrevAllocId = -1, int64_t PrevWork = 0)
      : Version(Version), PrevAllocId(PrevAllocId), PrevWork(PrevWork) {}

  /// Decodes one event at \p Pos. Returns false on malformed input (bad
  /// tag, truncated varint, id delta out of the uint32 range).
  bool decode(const char *Data, size_t Size, size_t &Pos, TraceEvent &E);

  /// Human-readable reason of the last decode() failure.
  const std::string &errorMessage() const { return Error; }

  /// \name Delta state, for resuming decode elsewhere.
  /// @{
  uint32_t version() const { return Version; }
  int64_t prevAllocId() const { return PrevAllocId; }
  int64_t prevWork() const { return PrevWork; }
  /// @}

private:
  uint32_t Version;
  int64_t PrevAllocId = -1;
  int64_t PrevWork = 0;
  std::string Error;
};

/// \name Meta payload codec (the first frame of every trace).
/// @{
std::string encodeTraceMeta(const TraceMeta &Meta);
bool decodeTraceMeta(const char *Data, size_t Size, TraceMeta &Meta,
                     std::string &Error);
/// @}

} // namespace ddm

#endif // DDM_TRACE_TRACECODEC_H
