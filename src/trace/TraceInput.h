//===- trace/TraceInput.h - Replay-side name of the reader -----*- C++ -*-===//
///
/// \file
/// TraceInput is the name replay-side code (the replayer, tracesynth,
/// tracestat) uses for the one trace reader, TraceReader (TraceReader.h).
/// It is an alias, not an interface: there is one reader class, and its
/// byte source (mmap or read()) is picked by the TraceReaderKind given to
/// openTraceInput().
///
//===----------------------------------------------------------------------===//

#ifndef DDM_TRACE_TRACEINPUT_H
#define DDM_TRACE_TRACEINPUT_H

#include "trace/TraceReader.h"

namespace ddm {

using TraceInput = TraceReader;

} // namespace ddm

#endif // DDM_TRACE_TRACEINPUT_H
