//===- trace/TraceReplayer.cpp - Deterministic trace replay ---------------===//

#include "trace/TraceReplayer.h"

#include "runtime/TransactionRuntime.h"
#include "trace/TraceDecodeLoop.inc"

#include <algorithm>

using namespace ddm;

TraceStatus TraceReplayer::open(const std::string &Path, TraceReaderKind Kind) {
  Input = openTraceInput(Path, Kind, Status);
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

/// Every way a replayed event can be rejected; reject() holds the wording.
enum class TraceReplayer::Failure : uint8_t {
  IdJump,
  LiveIdReuse,
  BadAlignment,
  AllocFailed,
  FreeUnknown,
  ReallocUnknown,
  ReallocSizeMismatch,
  ReallocFailed,
  TouchUnknown,
  StateOutOfRange,
  EndsMidTransaction,
};

void TraceReplayer::reject(Failure Why, uint64_t EventsSoFar, uint64_t A,
                           uint64_t B, uint64_t C) {
  std::string Message;
  switch (Why) {
  case Failure::IdJump:
    Message = "allocation of object id " + std::to_string(A) +
              " jumps ahead of the transaction's ids (only " +
              std::to_string(B) + " events precede it)";
    break;
  case Failure::LiveIdReuse:
    Message = "allocation reuses live object id " + std::to_string(A);
    break;
  case Failure::BadAlignment:
    Message = "aligned allocation of object id " + std::to_string(A) +
              " requests non-power-of-two alignment " + std::to_string(B);
    break;
  case Failure::AllocFailed:
    Message = "allocation of " + std::to_string(B) + " bytes for object " +
              std::to_string(A) +
              " failed: the executor's allocator exhausted its heap";
    break;
  case Failure::FreeUnknown:
    Message = "free of unknown or already-freed object id " +
              std::to_string(A);
    break;
  case Failure::ReallocUnknown:
    Message = "realloc of unknown or already-freed object id " +
              std::to_string(A);
    break;
  case Failure::ReallocSizeMismatch:
    Message = "realloc old-size mismatch on object id " + std::to_string(A) +
              ": trace says " + std::to_string(B) + ", object is " +
              std::to_string(C) + " bytes";
    break;
  case Failure::ReallocFailed:
    Message = "realloc of object " + std::to_string(A) + " to " +
              std::to_string(B) +
              " bytes failed: the executor's allocator exhausted its heap";
    break;
  case Failure::TouchUnknown:
    Message = "touch of unknown or already-freed object id " +
              std::to_string(A);
    break;
  case Failure::StateOutOfRange:
    Message = "state touch at offset " + std::to_string(A) +
              " is outside the workload's " + std::to_string(B) +
              "-byte state area";
    break;
  case Failure::EndsMidTransaction:
    Message = "trace ends in the middle of a transaction (" +
              std::to_string(A) + " events after the last boundary)";
    break;
  }
  // The offending event is the last one consumed.
  Status = TraceStatus::error(std::move(Message),
                              Input ? Input->byteOffset() : 0,
                              EventsSoFar ? EventsSoFar - 1 : 0);
}

TraceReplayer::LiveObject *TraceReplayer::growObjects(size_t MinSize) {
  // Geometric, so the first transaction of a replay resizes the table
  // O(log n) times rather than once per new id.
  Objects.resize(std::max(MinSize, 2 * Objects.size()));
  return Objects.data();
}

/// The replayer's consumer of decoded events (TraceDecodeLoop.inc): each
/// handler validates its event against the live-object table, counts it
/// in TraceStats and hands it to the executor, inside the decode loop.
/// EndTx and a rejected event stop the loop; Stop says which. The decode
/// loop works on a copy, so the counters below stay out of reach of the
/// executor's calls; replayEvents writes them back once per call.
template <typename ExecutorT> class TraceReplayer::EventConsumer {
public:
  EventConsumer(TraceReplayer &R, ExecutorT &X, const TraceStats &Stats,
                uint64_t StateBytesLimit)
      : R(&R), X(&X), Table(R.Objects.data()), TableSize(R.Objects.size()),
        StateBytesLimit(StateBytesLimit), EventsDone(R.EventsDone),
        EventsInTx(R.EventsInTx), ObjectsInTx(R.ObjectsInTx), Stats(Stats) {}

  [[gnu::always_inline]] bool alloc(uint32_t Id, uint64_t Size, uint32_t,
                                    bool) {
    if (!admit(Id))
      return false;
    add(Id, Size);
    X->onAlloc(Id, Size);
    return allocated(Id, Size);
  }
  [[gnu::always_inline]] bool calloc(uint32_t Id, uint64_t Size) {
    if (!admit(Id))
      return false;
    add(Id, Size);
    ++Stats.Callocs;
    X->onCalloc(Id, Size);
    return allocated(Id, Size);
  }
  [[gnu::always_inline]] bool allocAligned(uint32_t Id, uint64_t Size,
                                           uint32_t Alignment) {
    if (!admit(Id))
      return false;
    if (Alignment == 0 || (Alignment & (Alignment - 1)) != 0)
      return fail(Failure::BadAlignment, Id, Alignment);
    add(Id, Size);
    ++Stats.AlignedAllocs;
    X->onAllocAligned(Id, Size, Alignment);
    return allocated(Id, Size);
  }
  [[gnu::always_inline]] bool free(uint32_t Id, bool) {
    ++EventsDone;
    LiveObject *Object = live(Id);
    if (!Object)
      return fail(Failure::FreeUnknown, Id);
    Object->Live = false;
    ++EventsInTx;
    ++Stats.Frees;
    X->onFree(Id);
    return true;
  }
  [[gnu::always_inline]] bool realloc(uint32_t Id, uint64_t OldSize,
                                      uint64_t Size, bool) {
    ++EventsDone;
    LiveObject *Object = live(Id);
    if (!Object)
      return fail(Failure::ReallocUnknown, Id);
    if (Object->Size != OldSize)
      return fail(Failure::ReallocSizeMismatch, Id, OldSize, Object->Size);
    Object->Size = Size;
    ++EventsInTx;
    // AllocatedBytes counts malloc'd bytes only (Table 3's mean
    // allocation size definition), as in the generator's TraceStats.
    ++Stats.Reallocs;
    X->onRealloc(Id, OldSize, Size);
    if (X->txAborted())
      return fail(Failure::ReallocFailed, Id, Size);
    return true;
  }
  [[gnu::always_inline]] bool touch(uint32_t Id, bool IsWrite) {
    ++EventsDone;
    if (!live(Id))
      return fail(Failure::TouchUnknown, Id);
    ++EventsInTx;
    ++Stats.ObjectTouches;
    X->onTouch(Id, IsWrite);
    return true;
  }
  [[gnu::always_inline]] bool work(uint64_t Instructions, bool) {
    ++EventsDone;
    ++EventsInTx;
    Stats.WorkInstructions += Instructions;
    X->onWork(Instructions);
    return true;
  }
  [[gnu::always_inline]] bool stateTouch(uint64_t Offset, bool IsWrite) {
    ++EventsDone;
    // The touch spans [offset, offset+64); compare without computing
    // offset+64, which a corrupt offset near 2^64 would wrap past the
    // limit and into the runtime's unchecked state access.
    if (StateBytesLimit != StateLimitUnknown &&
        (Offset > StateBytesLimit || StateBytesLimit - Offset < 64))
      return fail(Failure::StateOutOfRange, Offset, StateBytesLimit);
    ++EventsInTx;
    ++Stats.StateTouches;
    X->onStateTouch(Offset, IsWrite);
    return true;
  }
  [[gnu::always_inline]] bool endTx(bool) {
    ++EventsDone;
    // Object ids restart at zero next transaction; whatever is still
    // live belongs to the runtime's end-of-transaction cleanup.
    std::fill_n(Table, ObjectsInTx, LiveObject());
    ObjectsInTx = 0;
    EventsInTx = 0;
    ++R->Transactions;
    Stop = Step::Tx;
    return false;
  }

  /// Called when the input ran out: clean only on a boundary.
  void endOfTrace() {
    if (EventsInTx != 0)
      fail(Failure::EndsMidTransaction, EventsInTx);
    else
      Stop = Step::End;
  }

  /// Writes the counters back to the replayer and \p Out.
  void save(TraceStats &Out) const {
    R->EventsDone = EventsDone;
    R->EventsInTx = EventsInTx;
    R->ObjectsInTx = ObjectsInTx;
    Out = Stats;
  }

  /// How the handler that stopped the loop ended it.
  Step Stop = Step::Error;

private:
  /// The table slot of \p Id if that object is live, else nullptr.
  [[gnu::always_inline]] LiveObject *live(uint32_t Id) const {
    return Id < ObjectsInTx && Table[Id].Live ? &Table[Id] : nullptr;
  }
  /// Counts an allocation event and checks the id rules.
  [[gnu::always_inline]] bool admit(uint32_t Id) {
    ++EventsDone;
    // Every producer numbers a transaction's objects densely from zero,
    // so an id can never exceed the events before it; the bound keeps
    // the table (and the runtime's) proportional to the transaction.
    if (Id > EventsInTx)
      return fail(Failure::IdJump, Id, EventsInTx);
    if (live(Id))
      return fail(Failure::LiveIdReuse, Id);
    return true;
  }
  /// Enters a validated allocation in the table and the stats.
  [[gnu::always_inline]] void add(uint32_t Id, uint64_t Size) {
    if (Id >= ObjectsInTx) {
      ObjectsInTx = uint64_t(Id) + 1;
      if (ObjectsInTx > TableSize) {
        Table = R->growObjects(ObjectsInTx);
        TableSize = R->Objects.size();
      }
    }
    Table[Id] = {Size, true};
    ++EventsInTx;
    ++Stats.Mallocs;
    Stats.AllocatedBytes += Size;
  }
  [[gnu::always_inline]] bool allocated(uint32_t Id, uint64_t Size) {
    if (X->txAborted())
      return fail(Failure::AllocFailed, Id, Size);
    return true;
  }
  [[gnu::always_inline]] bool fail(Failure Why, uint64_t A, uint64_t B = 0,
                                   uint64_t C = 0) {
    R->reject(Why, EventsDone, A, B, C);
    Stop = Step::Error;
    return false;
  }

  TraceReplayer *R;
  ExecutorT *X;
  LiveObject *Table; ///< R->Objects.data().
  size_t TableSize;  ///< R->Objects.size().
  uint64_t StateBytesLimit;
  uint64_t EventsDone;
  uint64_t EventsInTx;
  uint64_t ObjectsInTx;
  TraceStats Stats; ///< The caller's stats plus this call's events.
};

template <typename ExecutorT>
TraceReplayer::Step TraceReplayer::replayEvents(ExecutorT &Executor,
                                                TraceStats &Stats,
                                                uint64_t StateBytesLimit) {
  if (!status().ok())
    return Step::Error;
  EventConsumer<ExecutorT> Consumer(*this, Executor, Stats, StateBytesLimit);
  switch (Input->decodeInto(Consumer)) {
  case TraceInput::Next::Event: // a handler stopped the loop
    break;
  case TraceInput::Next::End:
    Consumer.endOfTrace();
    break;
  case TraceInput::Next::Error: // the reader's diagnostic
    Consumer.Stop = Step::Error;
    break;
  }
  Consumer.save(Stats);
  return Consumer.Stop;
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
