//===- core/AccessSink.h - Memory-access instrumentation hook --*- C++ -*-===//
///
/// \file
/// AccessSink is the bridge between the real allocators and the machine
/// simulator. Allocators mirror every metadata load/store into the sink and
/// report an instruction-count estimate for each operation path; the
/// transaction runtime mirrors the application's object accesses the same
/// way. A null sink (the default) makes instrumentation a single
/// well-predicted branch, so the identical allocator code runs natively in
/// the microbenchmarks and under simulation in the experiment harness.
///
/// Two mechanisms keep the instrumented hot path cheap and the simulation
/// reproducible:
///
///  - Batching: SinkHandle producers append events to a small POD buffer
///    owned by the sink (one buffer per sink, so the global event order is
///    preserved no matter how many handles feed it) and the sink drains it
///    with a single virtual accesses() call per ~64 events instead of one
///    virtual call per event.
///
///  - Region registration: producers announce the memory blocks whose
///    addresses they will mirror (heap arenas, metadata tables, interpreter
///    state) via mapRegion/unmapRegion. A simulating sink can then
///    translate real pointers into a canonical simulated address space in
///    registration order, making every counter independent of where the OS
///    happened to place an mmap — the property that lets sweep points run
///    concurrently yet produce byte-identical output.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_CORE_ACCESSSINK_H
#define DDM_CORE_ACCESSSINK_H

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace ddm {

/// Who is currently executing: used to attribute cycles between memory
/// management and the rest of the application (the paper's Figure 6 / 11
/// breakdowns).
enum class CostDomain : uint8_t {
  Application,
  MemoryManagement,
};

/// One buffered instrumentation event.
enum class AccessKind : uint8_t {
  Load,         ///< Payload = address, Bytes = access width.
  Store,        ///< Payload = address, Bytes = access width.
  Instructions, ///< Payload = dynamic instruction count.
  Domain,       ///< Payload = CostDomain to switch to.
};

/// A fixed-capacity POD buffer of instrumentation events, drained by one
/// virtual AccessSink::accesses() call.
struct AccessBatch {
  struct Event {
    uint64_t Payload;
    uint32_t Bytes;
    AccessKind Kind;
  };

  static constexpr unsigned Capacity = 64;

  Event Events[Capacity];
  unsigned Count = 0;
};

/// Receives memory accesses and instruction counts from instrumented code.
class AccessSink {
public:
  virtual ~AccessSink() = default;

  /// A data load of \p Bytes at \p Addr.
  virtual void load(uintptr_t Addr, uint32_t Bytes) = 0;

  /// A data store of \p Bytes at \p Addr.
  virtual void store(uintptr_t Addr, uint32_t Bytes) = 0;

  /// \p Count dynamic instructions executed (beyond the loads/stores).
  virtual void instructions(uint64_t Count) = 0;

  /// Switches cycle attribution to \p Domain. Implementations may ignore it.
  virtual void setDomain(CostDomain Domain) { (void)Domain; }

  /// Drains a batch of buffered events in order. The default implementation
  /// dispatches each event to the single-event virtuals; simulating sinks
  /// override it with a tight loop.
  virtual void accesses(const AccessBatch &Batch) {
    for (unsigned I = 0; I < Batch.Count; ++I) {
      const AccessBatch::Event &E = Batch.Events[I];
      switch (E.Kind) {
      case AccessKind::Load:
        load(static_cast<uintptr_t>(E.Payload), E.Bytes);
        break;
      case AccessKind::Store:
        store(static_cast<uintptr_t>(E.Payload), E.Bytes);
        break;
      case AccessKind::Instructions:
        instructions(E.Payload);
        break;
      case AccessKind::Domain:
        setDomain(static_cast<CostDomain>(E.Payload));
        break;
      }
    }
  }

  /// Announces a memory block whose addresses will be mirrored into this
  /// sink (a heap arena, a metadata table, the interpreter state area).
  /// Sinks that canonicalize addresses key their mapping off these calls;
  /// the default ignores them.
  virtual void mapRegion(const void *Base, size_t Size) {
    (void)Base;
    (void)Size;
  }

  /// Withdraws a block previously announced with mapRegion (the owner is
  /// going away). Pending buffered events are flushed by SinkHandle before
  /// this is forwarded, so no event can refer to a withdrawn block.
  virtual void unmapRegion(const void *Base) { (void)Base; }

  /// Drains any buffered events into accesses(). Call before reading
  /// counters out of a sink fed through SinkHandle producers.
  void flush() {
    if (Pending.Count == 0)
      return;
    accesses(Pending);
    Pending.Count = 0;
  }

  /// Appends one event to the shared buffer (SinkHandle's fast path).
  void pushEvent(AccessKind Kind, uint64_t Payload, uint32_t Bytes) {
    if (Pending.Count > 0) {
      // Coalesce runs of instruction counts and redundant domain switches:
      // they are the most frequent events and fold without changing what
      // any drain observes.
      AccessBatch::Event &Last = Pending.Events[Pending.Count - 1];
      if (Kind == AccessKind::Instructions &&
          Last.Kind == AccessKind::Instructions) {
        Last.Payload += Payload;
        return;
      }
      if (Kind == AccessKind::Domain && Last.Kind == AccessKind::Domain) {
        Last.Payload = Payload;
        return;
      }
    }
    AccessBatch::Event &E = Pending.Events[Pending.Count++];
    E.Payload = Payload;
    E.Bytes = Bytes;
    E.Kind = Kind;
    if (Pending.Count == AccessBatch::Capacity)
      flush();
  }

private:
  AccessBatch Pending;
};

/// Nullable wrapper that allocators and the runtime embed. All methods are
/// no-ops when no sink is attached. Events are buffered into the attached
/// sink's batch; region announcements flush first and forward immediately.
class SinkHandle {
public:
  SinkHandle() = default;
  explicit SinkHandle(AccessSink *S) : Sink(S) {}

  void attach(AccessSink *S) { Sink = S; }
  AccessSink *get() const { return Sink; }
  explicit operator bool() const { return Sink != nullptr; }

  void load(const void *Ptr, uint32_t Bytes) const {
    if (Sink)
      Sink->pushEvent(AccessKind::Load, reinterpret_cast<uintptr_t>(Ptr),
                      Bytes);
  }
  void store(const void *Ptr, uint32_t Bytes) const {
    if (Sink)
      Sink->pushEvent(AccessKind::Store, reinterpret_cast<uintptr_t>(Ptr),
                      Bytes);
  }
  void instructions(uint64_t Count) const {
    if (Sink)
      Sink->pushEvent(AccessKind::Instructions, Count, 0);
  }
  void setDomain(CostDomain Domain) const {
    if (Sink)
      Sink->pushEvent(AccessKind::Domain, static_cast<uint64_t>(Domain), 0);
  }

  void mapRegion(const void *Base, size_t Size) const {
    if (!Sink)
      return;
    Sink->flush();
    Sink->mapRegion(Base, Size);
  }
  void unmapRegion(const void *Base) const {
    if (!Sink)
      return;
    Sink->flush();
    Sink->unmapRegion(Base);
  }

  void flush() const {
    if (Sink)
      Sink->flush();
  }

private:
  AccessSink *Sink = nullptr;
};

/// Realloc's move, shared by every kind that moves a block: copies \p Bytes
/// from \p From to \p To and mirrors the copy into \p Sink as one load and
/// one store per cache-line-sized piece, charged Bytes / 16 + 8
/// instructions.
inline void reallocCopy(const SinkHandle &Sink, void *To, const void *From,
                        size_t Bytes) {
  std::memcpy(To, From, Bytes);
  AccessSink *S = Sink.get();
  if (!S)
    return;
  auto Src = reinterpret_cast<uintptr_t>(From);
  auto Dst = reinterpret_cast<uintptr_t>(To);
  for (uint64_t Left = Bytes; Left > 0;) {
    uint32_t Piece = Left > 64 ? 64 : static_cast<uint32_t>(Left);
    S->pushEvent(AccessKind::Load, Src, Piece);
    S->pushEvent(AccessKind::Store, Dst, Piece);
    Src += Piece;
    Dst += Piece;
    Left -= Piece;
  }
  S->pushEvent(AccessKind::Instructions, Bytes / 16 + 8, 0);
}

} // namespace ddm

#endif // DDM_CORE_ACCESSSINK_H
