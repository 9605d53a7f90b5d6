//===- trace/TraceReplayer.cpp - Deterministic trace replay ---------------===//

#include "trace/TraceReplayer.h"

#include "runtime/TransactionRuntime.h"

#include <algorithm>

using namespace ddm;

TraceStatus TraceReplayer::open(const std::string &Path, TraceReaderKind Kind) {
  Input = openTraceInput(Path, Kind, Status);
  Span = TraceEventSpan();
  SpanPos = 0;
  EventsDone = 0;
  Objects.clear();
  ObjectsInTx = 0;
  Total = TraceStats();
  Transactions = 0;
  EventsInTx = 0;
  return Status;
}

const TraceStatus &TraceReplayer::status() const {
  if (!Status.ok() || !Input)
    return Status;
  return Input->status();
}

TraceReplayer::LoopState TraceReplayer::loadState(const TraceStats &Stats) {
  return {Span.Data + SpanPos, Span.Data + Span.Size, Objects.data(),
          EventsDone, EventsInTx, ObjectsInTx, Stats};
}

void TraceReplayer::saveState(const LoopState &S, TraceStats &Stats) {
  SpanPos = static_cast<size_t>(S.Next - Span.Data);
  EventsDone = S.EventsDone;
  EventsInTx = S.EventsInTx;
  ObjectsInTx = S.ObjectsInTx;
  Stats = S.Stats;
}

TraceReplayer::Step TraceReplayer::failAt(LoopState S, TraceStats &Stats,
                                          std::string Message) {
  saveState(S, Stats);
  // The offending event is the one just consumed: index eventsReplayed()-1.
  Status = TraceStatus::error(std::move(Message),
                              Input ? Input->byteOffset() : 0,
                              EventsDone ? EventsDone - 1 : 0);
  return Step::Error;
}

template <typename ExecutorT>
TraceReplayer::Step TraceReplayer::replayEvents(ExecutorT &Executor,
                                                TraceStats &Stats,
                                                uint64_t StateBytesLimit) {
  if (!status().ok())
    return Step::Error;

  LoopState S = loadState(Stats);
  while (true) {
    while (S.Next == S.SpanEnd) {
      TraceInput::Next R = Input->nextBatch(Span);
      S.Next = Span.Data;
      S.SpanEnd = Span.Data + Span.Size;
      if (R == TraceInput::Next::End) {
        if (S.EventsInTx != 0)
          return failAt(S, Stats,
                        "trace ends in the middle of a transaction (" +
                            std::to_string(S.EventsInTx) +
                            " events after the last boundary)");
        saveState(S, Stats);
        return Step::End;
      }
      if (R == TraceInput::Next::Error) {
        saveState(S, Stats);
        return Step::Error;
      }
    }

    const TraceEvent &E = *S.Next++;
    ++S.EventsDone;
    switch (E.Op) {
    case TraceOp::Alloc:
    case TraceOp::Calloc:
    case TraceOp::AllocAligned: {
      // Every producer numbers a transaction's objects densely from zero,
      // so an id can never exceed the events before it; the bound keeps
      // the table (and the runtime's) proportional to the transaction.
      if (E.Id > S.EventsInTx)
        return failAt(S, Stats,
                      "allocation of object id " + std::to_string(E.Id) +
                          " jumps ahead of the transaction's ids (only " +
                          std::to_string(S.EventsInTx) +
                          " events precede it)");
      if (liveObject(S, E.Id))
        return failAt(S, Stats,
                      "allocation reuses live object id " +
                          std::to_string(E.Id));
      if (E.Op == TraceOp::AllocAligned &&
          (E.Alignment == 0 || (E.Alignment & (E.Alignment - 1)) != 0))
        return failAt(S, Stats,
                      "aligned allocation of object id " +
                          std::to_string(E.Id) +
                          " requests non-power-of-two alignment " +
                          std::to_string(E.Alignment));
      if (E.Id >= S.ObjectsInTx) {
        S.ObjectsInTx = uint64_t(E.Id) + 1;
        if (S.ObjectsInTx > Objects.size()) {
          Objects.resize(S.ObjectsInTx);
          S.Table = Objects.data();
        }
      }
      S.Table[E.Id] = {E.Size, true};
      ++S.EventsInTx;
      ++S.Stats.Mallocs;
      S.Stats.AllocatedBytes += E.Size;
      if (E.Op == TraceOp::Calloc) {
        ++S.Stats.Callocs;
        Executor.onCalloc(E.Id, E.Size);
      } else if (E.Op == TraceOp::AllocAligned) {
        ++S.Stats.AlignedAllocs;
        Executor.onAllocAligned(E.Id, E.Size, E.Alignment);
      } else {
        Executor.onAlloc(E.Id, E.Size);
      }
      if (Executor.txAborted())
        return failAt(S, Stats,
                      "allocation of " + std::to_string(E.Size) +
                          " bytes for object " + std::to_string(E.Id) +
                          " failed: the executor's allocator exhausted its "
                          "heap");
      break;
    }
    case TraceOp::Free: {
      LiveObject *Object = liveObject(S, E.Id);
      if (!Object)
        return failAt(S, Stats,
                      "free of unknown or already-freed object id " +
                          std::to_string(E.Id));
      Object->Live = false;
      ++S.EventsInTx;
      ++S.Stats.Frees;
      Executor.onFree(E.Id);
      break;
    }
    case TraceOp::Realloc: {
      LiveObject *Object = liveObject(S, E.Id);
      if (!Object)
        return failAt(S, Stats,
                      "realloc of unknown or already-freed object id " +
                          std::to_string(E.Id));
      if (Object->Size != E.OldSize)
        return failAt(S, Stats,
                      "realloc old-size mismatch on object id " +
                          std::to_string(E.Id) + ": trace says " +
                          std::to_string(E.OldSize) + ", object is " +
                          std::to_string(Object->Size) + " bytes");
      Object->Size = E.Size;
      ++S.EventsInTx;
      // AllocatedBytes counts malloc'd bytes only (Table 3's mean
      // allocation size definition), as in the generator's TraceStats.
      ++S.Stats.Reallocs;
      Executor.onRealloc(E.Id, E.OldSize, E.Size);
      if (Executor.txAborted())
        return failAt(S, Stats,
                      "realloc of object " + std::to_string(E.Id) + " to " +
                          std::to_string(E.Size) +
                          " bytes failed: the executor's allocator exhausted "
                          "its heap");
      break;
    }
    case TraceOp::Touch:
      if (!liveObject(S, E.Id))
        return failAt(S, Stats,
                      "touch of unknown or already-freed object id " +
                          std::to_string(E.Id));
      ++S.EventsInTx;
      ++S.Stats.ObjectTouches;
      Executor.onTouch(E.Id, E.IsWrite);
      break;
    case TraceOp::Work:
      ++S.EventsInTx;
      S.Stats.WorkInstructions += E.Size;
      Executor.onWork(E.Size);
      break;
    case TraceOp::StateTouch:
      // The touch spans [offset, offset+64); compare without computing
      // offset+64, which a corrupt offset near 2^64 would wrap past the
      // limit and into the runtime's unchecked state access.
      if (StateBytesLimit != StateLimitUnknown &&
          (E.Size > StateBytesLimit || StateBytesLimit - E.Size < 64))
        return failAt(S, Stats,
                      "state touch at offset " + std::to_string(E.Size) +
                          " is outside the workload's " +
                          std::to_string(StateBytesLimit) +
                          "-byte state area");
      ++S.EventsInTx;
      ++S.Stats.StateTouches;
      Executor.onStateTouch(E.Size, E.IsWrite);
      break;
    case TraceOp::EndTx:
      // Object ids restart at zero next transaction; whatever is still
      // live belongs to the runtime's end-of-transaction cleanup.
      std::fill_n(S.Table, S.ObjectsInTx, LiveObject());
      S.ObjectsInTx = 0;
      S.EventsInTx = 0;
      ++Transactions;
      saveState(S, Stats);
      return Step::Tx;
    }
  }
}

TraceReplayer::Step
TraceReplayer::replayTransactionInto(TxExecutor &Executor, TraceStats &Stats,
                                     uint64_t StateBytesLimit) {
  return replayEvents(Executor, Stats, StateBytesLimit);
}

TraceReplayer::Step TraceReplayer::replayTransaction(TransactionRuntime &RT) {
  TraceStats Stats;
  Step S = replayEvents(RT, Stats, RT.workload().AppStateBytes);
  if (S == Step::Tx) {
    RT.completeTransaction(Stats);
    Total.add(Stats);
  }
  return S;
}

TraceStatus ddm::summarizeTrace(const std::string &Path, TraceSummary &Summary,
                                TraceReaderKind Kind) {
  /// A black hole: summarizing validates and counts without executing.
  /// Final, so the loop instantiated on it calls nothing.
  class NullExecutor final : public TxExecutor {
  public:
    void onAlloc(uint32_t, size_t) override {}
    void onFree(uint32_t) override {}
    void onRealloc(uint32_t, size_t, size_t) override {}
    void onTouch(uint32_t, bool) override {}
    void onWork(uint64_t) override {}
    void onStateTouch(uint64_t, bool) override {}
  };

  TraceReplayer Replayer;
  if (TraceStatus S = Replayer.open(Path, Kind); !S)
    return S;
  Summary.Meta = Replayer.meta();

  const WorkloadSpec *Spec = Replayer.workload();
  uint64_t StateLimit =
      Spec ? Spec->AppStateBytes : TraceReplayer::StateLimitUnknown;

  NullExecutor Sink;
  while (true) {
    TraceStats Stats;
    switch (Replayer.replayEvents(Sink, Stats, StateLimit)) {
    case TraceReplayer::Step::Error:
      return Replayer.status();
    case TraceReplayer::Step::End:
      Summary.Transactions = Replayer.transactionsReplayed();
      Summary.Events = Replayer.eventsReplayed();
      return TraceStatus::success();
    case TraceReplayer::Step::Tx:
      Summary.Total.add(Stats);
      break;
    }
  }
}
