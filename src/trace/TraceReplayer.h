//===- trace/TraceReplayer.h - Deterministic trace replay ------*- C++ -*-===//
///
/// \file
/// The replay half of record/replay: streams a recorded trace back through
/// any TxExecutor — most usefully a TransactionRuntime, which makes the
/// allocator under test relive the recorded run exactly. Because the
/// generator's event stream never depends on the executor, one recorded
/// trace drives every allocator at identical inputs, and replaying with
/// the trace's own seed reproduces the live run bit-for-bit.
///
/// The replayer runs inside the trace reader's decode loop
/// (TraceReader::decodeInto, TraceDecodeLoop.inc): its EventConsumer's
/// handler for each op validates the event, counts it and calls the
/// executor as soon as the event is decoded, so no decoded event is
/// stored and read back. The reader is mmap'd for regular files and
/// read() for pipes/FIFOs (see openTraceInput).
///
/// The consumer is a template over the executor type, instantiated three
/// times in TraceReplayer.cpp:
///  - on TxExecutor, behind replayTransactionInto: the generic path, one
///    virtual call per event, for any executor;
///  - on the final TransactionRuntime, behind replayTransaction: the fast
///    path that replay sweeps, Measure and heatmap use. The calls bind
///    statically, and the runtime's touch, work and state-touch handlers
///    (defined in TransactionRuntime.h) inline into the decode loop;
///  - on summarizeTrace's final null executor, so the validating scan
///    pays for no executor call at all.
/// The decode loop works on a copy of the consumer, where the executor's
/// calls cannot force its event and object counts and the transaction's
/// TraceStats back to memory; they reach the members once per call. A
/// rejected event records its diagnostic (text, byte offset, event index)
/// on the spot.
///
/// The replayer validates events against its own live-object table before
/// forwarding them, so a malformed or hand-edited trace produces a
/// TraceStatus diagnostic (with byte offset and event index) instead of
/// tripping runtime assertions: unknown-handle free, double free, realloc
/// after free, old-size mismatch, touch of a dead object, out-of-range
/// state touch, and truncation inside a transaction are all caught.
///
/// The live-object table is dense: a vector indexed by object id holding
/// each object's size and a live flag, cleared (not freed) at every
/// transaction boundary, so checking an event is one indexed load. That
/// relies on one more rule: object ids are handed out densely within a
/// transaction (the generator, the preload shim, tracesynth and the
/// transforms all count from zero), so an allocation whose id exceeds the
/// number of events already replayed in its transaction is rejected. The
/// table grows geometrically, to at most twice the largest transaction,
/// and the runtime's object records never outgrow that transaction.
/// Diagnostic text is formatted only on the failing branch; a valid event
/// costs no string work.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_TRACE_TRACEREPLAYER_H
#define DDM_TRACE_TRACEREPLAYER_H

#include "trace/TraceInput.h"
#include "workload/TraceGenerator.h"
#include "workload/WorkloadSpec.h"

#include <memory>
#include <string>
#include <vector>

namespace ddm {

class TransactionRuntime;
struct TraceSummary;

class TraceReplayer {
public:
  /// Outcome of one replay step.
  enum class Step {
    Tx,    ///< One full transaction was replayed.
    End,   ///< Clean end of trace (on a transaction boundary).
    Error, ///< Malformed trace; see status().
  };

  /// Opens \p Path and validates the container header. \p Kind picks the
  /// backing reader (default: mmap for regular files, streaming
  /// otherwise). Reopening resets all replay state.
  TraceStatus open(const std::string &Path,
                   TraceReaderKind Kind = TraceReaderKind::Auto);

  /// Provenance of the recorded run (valid after open()).
  const TraceMeta &meta() const {
    static const TraceMeta Empty;
    return Input ? Input->meta() : Empty;
  }

  /// The backing reader's name ("mmap" or "stream"), for diagnostics and
  /// bench labels; "none" before open().
  const char *readerName() const {
    return Input ? Input->readerName() : "none";
  }

  /// The workload the trace was recorded from, or nullptr if the trace
  /// names a workload this build does not know.
  const WorkloadSpec *workload() const { return findWorkload(meta().Workload); }

  /// StateBytesLimit value meaning "state-area size unknown": state-touch
  /// range validation is skipped. Any other value — including 0, i.e. no
  /// state area at all — is enforced.
  static constexpr uint64_t StateLimitUnknown = ~uint64_t(0);

  /// Replays events up to and including the next transaction boundary
  /// into \p Executor, accumulating what was delivered into \p Stats.
  /// The EndTx marker itself is not forwarded — the caller owns the
  /// end-of-transaction protocol. \p StateBytesLimit is the workload's
  /// state-area size; state touches whose 64-byte span does not fit are
  /// rejected (pass StateLimitUnknown only when the size is unknowable).
  Step replayTransactionInto(TxExecutor &Executor, TraceStats &Stats,
                             uint64_t StateBytesLimit = StateLimitUnknown);

  /// Replays one transaction into \p RT and completes it (cleanup,
  /// metrics, scheduled restart) exactly like executeTransaction(). The
  /// fast path: the same steps, diagnostics and stats as
  /// replayTransactionInto followed by completeTransaction, without a
  /// virtual call per event.
  Step replayTransaction(TransactionRuntime &RT);

  /// The diagnostic of the first failure (success-valued otherwise).
  const TraceStatus &status() const;

  /// \name Aggregates over everything replayed so far.
  /// @{
  const TraceStats &totalStats() const { return Total; }
  uint64_t transactionsReplayed() const { return Transactions; }
  uint64_t eventsReplayed() const { return EventsDone; }
  /// @}

private:
  /// One slot of the live-object table.
  struct LiveObject {
    uint64_t Size = 0;
    bool Live = false;
  };

  /// Why an event was rejected (defined, with reject(), in the .cpp).
  enum class Failure : uint8_t;
  /// The decode-loop consumer (see the file comment).
  template <typename ExecutorT> class EventConsumer;

  /// The one replay entry (see the file comment for its instantiations).
  template <typename ExecutorT>
  Step replayEvents(ExecutorT &Executor, TraceStats &Stats,
                    uint64_t StateBytesLimit);
  /// Records the diagnostic of the last of \p EventsSoFar consumed
  /// events, rejected for \p Why; \p A .. \p C are the numbers it names.
  /// Out of line: a valid event costs no string work.
  void reject(Failure Why, uint64_t EventsSoFar, uint64_t A, uint64_t B,
              uint64_t C);
  /// Grows the live-object table to at least \p MinSize slots.
  LiveObject *growObjects(size_t MinSize);

  friend TraceStatus summarizeTrace(const std::string &, TraceSummary &,
                                    TraceReaderKind);

  std::unique_ptr<TraceInput> Input;
  uint64_t EventsDone = 0; ///< Events consumed from the input.
  /// The live-object table, indexed by object id. Slots at and above
  /// ObjectsInTx are never live; EndTx clears the used prefix and keeps
  /// the storage for the next transaction.
  std::vector<LiveObject> Objects;
  uint64_t ObjectsInTx = 0; ///< One past the highest id allocated this tx.
  TraceStats Total;
  uint64_t Transactions = 0;
  uint64_t EventsInTx = 0;
  TraceStatus Status;
};

/// Aggregate shape of a trace, computed by a validating scan without
/// executing anything (the `tracestat` tool, pre-replay validation).
struct TraceSummary {
  TraceMeta Meta;
  uint64_t Transactions = 0;
  uint64_t Events = 0;
  TraceStats Total;

  /// \name Per-transaction means in Table 3's terms.
  /// @{
  double mallocsPerTx() const { return perTx(Total.Mallocs); }
  double freesPerTx() const { return perTx(Total.Frees); }
  double reallocsPerTx() const { return perTx(Total.Reallocs); }
  double meanAllocBytes() const { return Total.meanAllocBytes(); }
  /// @}

private:
  double perTx(uint64_t N) const {
    return Transactions ? static_cast<double>(N) /
                              static_cast<double>(Transactions)
                        : 0.0;
  }
};

/// Scans \p Path end to end, validating every frame and event, and fills
/// \p Summary. Returns the first error found, if any.
TraceStatus summarizeTrace(const std::string &Path, TraceSummary &Summary,
                           TraceReaderKind Kind = TraceReaderKind::Auto);

} // namespace ddm

#endif // DDM_TRACE_TRACEREPLAYER_H
