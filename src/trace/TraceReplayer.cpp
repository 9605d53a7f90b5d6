//===- trace/TraceReplayer.cpp - Deterministic trace replay ---------------===//

#include "trace/TraceReplayer.h"

#include "runtime/TransactionRuntime.h"

#include <algorithm>

using namespace ddm;

TraceStatus TraceReplayer::fail(std::string Message) {
  // The offending event is the one just consumed: index eventsReplayed()-1.
  Status = TraceStatus::error(std::move(Message),
                              Input ? Input->byteOffset() : 0,
                              EventsDone ? EventsDone - 1 : 0);
  return Status;
}

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

TraceInput::Next TraceReplayer::nextEvent(const TraceEvent *&E) {
  while (SpanPos >= Span.Size) {
    SpanPos = 0;
    TraceInput::Next R = Input->nextBatch(Span);
    if (R != TraceInput::Next::Event)
      return R;
  }
  E = &Span.Data[SpanPos++];
  ++EventsDone;
  return TraceInput::Next::Event;
}

TraceReplayer::Step
TraceReplayer::replayTransactionInto(TxExecutor &Executor, TraceStats &Stats,
                                     uint64_t StateBytesLimit) {
  if (!status().ok())
    return Step::Error;

  const TraceEvent *EP = nullptr;
  while (true) {
    switch (nextEvent(EP)) {
    case TraceInput::Next::End:
      if (EventsInTx != 0) {
        fail("trace ends in the middle of a transaction (" +
             std::to_string(EventsInTx) + " events after the last boundary)");
        return Step::Error;
      }
      return Step::End;
    case TraceInput::Next::Error:
      return Step::Error;
    case TraceInput::Next::Event:
      break;
    }

    const TraceEvent &E = *EP;
    switch (E.Op) {
    case TraceOp::Alloc:
    case TraceOp::Calloc:
    case TraceOp::AllocAligned: {
      // Every producer numbers a transaction's objects densely from zero,
      // so an id can never exceed the events before it; the bound keeps
      // the table (and the runtime's) proportional to the transaction.
      if (E.Id > EventsInTx) {
        fail("allocation of object id " + std::to_string(E.Id) +
             " jumps ahead of the transaction's ids (only " +
             std::to_string(EventsInTx) + " events precede it)");
        return Step::Error;
      }
      if (E.Id >= ObjectsInTx) {
        ObjectsInTx = uint64_t(E.Id) + 1;
        if (ObjectsInTx > Objects.size())
          Objects.resize(ObjectsInTx);
      }
      LiveObject &Object = Objects[E.Id];
      if (Object.Live) {
        fail("allocation reuses live object id " + std::to_string(E.Id));
        return Step::Error;
      }
      if (E.Op == TraceOp::AllocAligned &&
          (E.Alignment == 0 || (E.Alignment & (E.Alignment - 1)) != 0)) {
        fail("aligned allocation of object id " + std::to_string(E.Id) +
             " requests non-power-of-two alignment " +
             std::to_string(E.Alignment));
        return Step::Error;
      }
      Object.Size = E.Size;
      Object.Live = true;
      ++EventsInTx;
      ++Stats.Mallocs;
      Stats.AllocatedBytes += E.Size;
      if (E.Op == TraceOp::Calloc) {
        ++Stats.Callocs;
        Executor.onCalloc(E.Id, E.Size);
      } else if (E.Op == TraceOp::AllocAligned) {
        ++Stats.AlignedAllocs;
        Executor.onAllocAligned(E.Id, E.Size, E.Alignment);
      } else {
        Executor.onAlloc(E.Id, E.Size);
      }
      if (Executor.txAborted()) {
        fail("allocation of " + std::to_string(E.Size) + " bytes for object " +
             std::to_string(E.Id) +
             " failed: the executor's allocator exhausted its heap");
        return Step::Error;
      }
      break;
    }
    case TraceOp::Free: {
      LiveObject *Object = liveObject(E.Id);
      if (!Object) {
        fail("free of unknown or already-freed object id " +
             std::to_string(E.Id));
        return Step::Error;
      }
      Object->Live = false;
      ++EventsInTx;
      ++Stats.Frees;
      Executor.onFree(E.Id);
      break;
    }
    case TraceOp::Realloc: {
      LiveObject *Object = liveObject(E.Id);
      if (!Object) {
        fail("realloc of unknown or already-freed object id " +
             std::to_string(E.Id));
        return Step::Error;
      }
      if (Object->Size != E.OldSize) {
        fail("realloc old-size mismatch on object id " + std::to_string(E.Id) +
             ": trace says " + std::to_string(E.OldSize) + ", object is " +
             std::to_string(Object->Size) + " bytes");
        return Step::Error;
      }
      Object->Size = E.Size;
      ++EventsInTx;
      // AllocatedBytes counts malloc'd bytes only (Table 3's mean
      // allocation size definition), as in the generator's TraceStats.
      ++Stats.Reallocs;
      Executor.onRealloc(E.Id, E.OldSize, E.Size);
      if (Executor.txAborted()) {
        fail("realloc of object " + std::to_string(E.Id) + " to " +
             std::to_string(E.Size) +
             " bytes failed: the executor's allocator exhausted its heap");
        return Step::Error;
      }
      break;
    }
    case TraceOp::Touch:
      if (!liveObject(E.Id)) {
        fail("touch of unknown or already-freed object id " +
             std::to_string(E.Id));
        return Step::Error;
      }
      ++EventsInTx;
      ++Stats.ObjectTouches;
      Executor.onTouch(E.Id, E.IsWrite);
      break;
    case TraceOp::Work:
      ++EventsInTx;
      Stats.WorkInstructions += E.Size;
      Executor.onWork(E.Size);
      break;
    case TraceOp::StateTouch:
      // The touch spans [offset, offset+64); compare without computing
      // offset+64, which a corrupt offset near 2^64 would wrap past the
      // limit and into the runtime's unchecked state access.
      if (StateBytesLimit != StateLimitUnknown &&
          (E.Size > StateBytesLimit || StateBytesLimit - E.Size < 64)) {
        fail("state touch at offset " + std::to_string(E.Size) +
             " is outside the workload's " + std::to_string(StateBytesLimit) +
             "-byte state area");
        return Step::Error;
      }
      ++EventsInTx;
      ++Stats.StateTouches;
      Executor.onStateTouch(E.Size, E.IsWrite);
      break;
    case TraceOp::EndTx:
      // Object ids restart at zero next transaction; whatever is still
      // live belongs to the runtime's end-of-transaction cleanup.
      std::fill_n(Objects.begin(), ObjectsInTx, LiveObject());
      ObjectsInTx = 0;
      EventsInTx = 0;
      ++Transactions;
      return Step::Tx;
    }
  }
}

TraceReplayer::Step TraceReplayer::replayTransaction(TransactionRuntime &RT) {
  TraceStats Stats;
  Step S = replayTransactionInto(RT, Stats, RT.workload().AppStateBytes);
  if (S == Step::Tx) {
    RT.completeTransaction(Stats);
    Total.add(Stats);
  }
  return S;
}

TraceStatus ddm::summarizeTrace(const std::string &Path, TraceSummary &Summary,
                                TraceReaderKind Kind) {
  /// A black hole: summarizing validates and counts without executing.
  class NullExecutor final : public TxExecutor {
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
    switch (Replayer.replayTransactionInto(Sink, Stats, StateLimit)) {
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
