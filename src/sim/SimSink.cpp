//===- sim/SimSink.cpp - AccessSink driving the machine model -------------===//

#include "sim/SimSink.h"

#include <algorithm>
#include <cassert>

using namespace ddm;

DomainEvents &DomainEvents::operator+=(const DomainEvents &Other) {
  Instructions += Other.Instructions;
  LineAccesses += Other.LineAccesses;
  L1DMisses += Other.L1DMisses;
  L2Hits += Other.L2Hits;
  L2Misses += Other.L2Misses;
  TlbMisses += Other.TlbMisses;
  Writebacks += Other.Writebacks;
  PrefetchesIssued += Other.PrefetchesIssued;
  PrefetchesUseful += Other.PrefetchesUseful;
  return *this;
}

namespace {

// The L1D and D-TLB of a core are shared by its hardware threads; the
// representative runtime sees 1/ThreadsPerCore of each.
uint64_t effL1DBytesFor(const Platform &P) {
  return P.L1D.SizeBytes / P.ThreadsPerCore;
}

unsigned effTlbEntriesFor(const Platform &P) {
  unsigned Entries = P.TlbEntries / P.ThreadsPerCore;
  return Entries < 4 ? 4 : Entries;
}

// Runtimes are spread evenly over the L2 instances; each runtime sees an
// equal slice of its L2.
uint64_t effL2BytesFor(const Platform &P, unsigned ActiveCores) {
  unsigned L2Instances = P.Cores / P.CoresPerL2;
  unsigned ActiveThreads = ActiveCores * P.ThreadsPerCore;
  unsigned ThreadsPerL2 = (ActiveThreads + L2Instances - 1) / L2Instances;
  if (ThreadsPerL2 < 1)
    ThreadsPerL2 = 1;
  return P.L2Bytes / ThreadsPerL2;
}

CacheGeometry l1GeometryFor(const Platform &P) {
  CacheGeometry Geometry = P.L1D;
  Geometry.SizeBytes = effL1DBytesFor(P);
  return Geometry;
}

CacheGeometry l2GeometryFor(const Platform &P, unsigned ActiveCores) {
  CacheGeometry Geometry;
  Geometry.SizeBytes = effL2BytesFor(P, ActiveCores);
  Geometry.Associativity = P.L2Assoc;
  Geometry.LineBytes = 64;
  return Geometry;
}

} // namespace

SimSink::SimSink(const Platform &P, unsigned ActiveCores, bool LargePages)
    : Plat(P), Cores(ActiveCores), UseLargePages(LargePages),
      EffL1DBytes(effL1DBytesFor(P)), EffL2Bytes(effL2BytesFor(P, ActiveCores)),
      EffTlbEntries(effTlbEntriesFor(P)), L1D(l1GeometryFor(P)),
      L2(l2GeometryFor(P, ActiveCores)),
      Dtlb(effTlbEntriesFor(P), LargePages ? P.LargePageBytes : P.PageBytes) {
  assert(ActiveCores >= 1 && ActiveCores <= P.Cores && "bad core count");
  if (P.HasPrefetcher)
    Prefetcher.emplace();
}

void SimSink::mapRegion(const void *Base, size_t Size) {
  Canon.mapRegion(Base, Size);
}

void SimSink::unmapRegion(const void *Base) { Canon.unmapRegion(Base); }

void SimSink::installPrefetches(const PrefetchList &List, DomainEvents &E) {
  for (unsigned I = 0; I < List.Count; ++I) {
    uint64_t Line = List.Lines[I];
    if (L2.probeLine(Line))
      continue;
    ++E.PrefetchesIssued;
    Cache::Outcome Fill = L2.installLine(Line, /*MarkPrefetched=*/true);
    if (Fill.Evicted && Fill.EvictedDirty)
      ++E.Writebacks;
  }
}

void SimSink::touchLine(uint64_t Line, bool IsWrite) {
  DomainEvents &E = Events[DomainIndex];
  ++E.LineAccesses;

  if (Line == LastLine) {
    // The previous access left this line's page at the head of the D-TLB
    // and the line itself resident in L1D (the L1D only ever changes
    // through accessLine here), so the repeat is a TLB hit plus an L1D hit
    // with nothing deeper.
    Dtlb.access(static_cast<uintptr_t>(Line << 6));
    L1D.repeatLastAccess(IsWrite);
    return;
  }
  LastLine = Line;

  if (!Dtlb.access(static_cast<uintptr_t>(Line << 6)))
    ++E.TlbMisses;

  Cache::Outcome L1Result = L1D.accessLine(Line, IsWrite);
  if (!L1Result.Hit)
    missL1D(Line, IsWrite, L1Result, E);
}

void SimSink::missL1D(uint64_t Line, bool IsWrite,
                      const Cache::Outcome &L1Result, DomainEvents &E) {
  ++E.L1DMisses;
  if (L1Result.Evicted && L1Result.EvictedDirty) {
    // Dirty L1 victim: lands in the L2 if resident there (the common,
    // inclusive case), otherwise it goes all the way to memory.
    if (!L2.markDirtyLineIfPresent(L1Result.EvictedLine))
      ++E.Writebacks;
  }

  Cache::Outcome L2Result = L2.accessLine(Line, IsWrite);
  if (L2Result.Hit) {
    ++E.L2Hits;
    if (L2Result.HitWasPrefetched) {
      ++E.PrefetchesUseful;
      if (Prefetcher) {
        // Consuming a prefetched line keeps the stream running ahead.
        PrefetchList List;
        Prefetcher->onPrefetchedHitLine(Line, List);
        installPrefetches(List, E);
      }
    }
    return;
  }
  ++E.L2Misses;
  if (L2Result.Evicted && L2Result.EvictedDirty)
    ++E.Writebacks;

  if (Prefetcher) {
    PrefetchList List;
    Prefetcher->onDemandMissLine(Line, List);
    installPrefetches(List, E);
  }
}

void SimSink::touchRange(uint64_t CanonAddr, uint32_t Bytes, bool IsWrite) {
  uint64_t First = CanonAddr >> 6;
  uint64_t Last = (CanonAddr + (Bytes ? Bytes - 1 : 0)) >> 6;
  for (uint64_t Line = First; Line <= Last; ++Line)
    touchLine(Line, IsWrite);
}

void SimSink::accesses(const AccessBatch &Batch) {
  for (unsigned I = 0; I < Batch.Count; ++I) {
    const AccessBatch::Event &E = Batch.Events[I];
    switch (E.Kind) {
    case AccessKind::Load:
      touchRange(Canon.translate(static_cast<uintptr_t>(E.Payload)), E.Bytes,
                 /*IsWrite=*/false);
      break;
    case AccessKind::Store:
      touchRange(Canon.translate(static_cast<uintptr_t>(E.Payload)), E.Bytes,
                 /*IsWrite=*/true);
      break;
    case AccessKind::Instructions:
      Events[DomainIndex].Instructions += E.Payload;
      break;
    case AccessKind::Domain:
      DomainIndex = static_cast<unsigned>(E.Payload);
      break;
    }
  }
}

// The single-event entry points flush the shared buffer first so direct
// virtual calls (tests, ad-hoc drivers) interleave correctly with buffered
// SinkHandle producers feeding the same sink.

void SimSink::load(uintptr_t Addr, uint32_t Bytes) {
  flush();
  touchRange(Canon.translate(Addr), Bytes, /*IsWrite=*/false);
}

void SimSink::store(uintptr_t Addr, uint32_t Bytes) {
  flush();
  touchRange(Canon.translate(Addr), Bytes, /*IsWrite=*/true);
}

void SimSink::instructions(uint64_t Count) {
  flush();
  Events[DomainIndex].Instructions += Count;
}

void SimSink::setDomain(CostDomain Domain) {
  flush();
  DomainIndex = static_cast<unsigned>(Domain);
}

void SimSink::resetCounters() {
  flush();
  Events[0] = DomainEvents();
  Events[1] = DomainEvents();
}

DomainEvents SimSink::totalEvents() const {
  DomainEvents Total = Events[0];
  Total += Events[1];
  return Total;
}
