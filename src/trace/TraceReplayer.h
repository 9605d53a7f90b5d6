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
/// The replayer pulls decoded events in spans of up to 1024 from the
/// trace reader (TraceInput, TraceReader.h) — mmap'd for regular files,
/// read() for pipes/FIFOs (see openTraceInput) — so the hot loop costs
/// one reader call per span, not one per event.
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
/// table, and the runtime's object records, therefore never outgrow the
/// transaction that fills them. Diagnostic text is formatted only on the
/// failing branch; a valid event costs no string work.
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
  /// metrics, scheduled restart) exactly like executeTransaction().
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

  TraceStatus fail(std::string Message);
  /// The table slot of \p Id if that object is live, else nullptr.
  LiveObject *liveObject(uint32_t Id) {
    return Id < ObjectsInTx && Objects[Id].Live ? &Objects[Id] : nullptr;
  }
  /// Advances the span cursor, refilling from the input as needed.
  TraceInput::Next nextEvent(const TraceEvent *&E);

  std::unique_ptr<TraceInput> Input;
  TraceEventSpan Span;     ///< Current batch of decoded events.
  size_t SpanPos = 0;      ///< Consumption cursor within Span.
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
