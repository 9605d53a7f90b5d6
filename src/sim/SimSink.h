//===- sim/SimSink.h - AccessSink driving the machine model ----*- C++ -*-===//
///
/// \file
/// SimSink implements the AccessSink instrumentation interface over one
/// hardware thread's view of the memory hierarchy: its D-TLB share, its
/// L1D share, its slice of the shared L2, and (on Xeon-like platforms) the
/// L2 stream prefetcher. Because all runtime processes in the study run
/// identical independent workloads, simulating one representative thread
/// and scaling analytically (see Performance.h) reproduces the multicore
/// behaviour without a full multi-core simulation.
///
/// Cache capacities are divided by the number of hardware threads that
/// share them at the simulated core count — e.g. on the Niagara-like
/// platform with all 8 cores active, 32 threads share the 3 MB L2, so the
/// representative thread sees 96 KB of it.
///
/// Every counter is split by CostDomain (application vs memory
/// management), which is what the paper's Figure 6/11 CPU-time breakdowns
/// need.
///
/// Canonical simulated addresses: the cache/TLB model is address-based, so
/// raw pointers would make every counter depend on where the OS placed
/// each mmap. SimSink therefore translates real addresses through a
/// CanonicalAddressMap before they touch the model — see
/// sim/CanonicalAddressMap.h for the layout and determinism argument.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_SIM_SIMSINK_H
#define DDM_SIM_SIMSINK_H

#include "core/AccessSink.h"
#include "sim/Cache.h"
#include "sim/CanonicalAddressMap.h"
#include "sim/Platform.h"
#include "sim/Prefetcher.h"
#include "sim/Tlb.h"

#include <optional>

namespace ddm {

/// Event counts gathered by a SimSink, per cost domain.
struct DomainEvents {
  uint64_t Instructions = 0;
  uint64_t LineAccesses = 0;
  uint64_t L1DMisses = 0;
  uint64_t L2Hits = 0; ///< L1D misses that hit in L2.
  uint64_t L2Misses = 0;
  uint64_t TlbMisses = 0;
  uint64_t Writebacks = 0;       ///< Dirty lines pushed to memory (bus).
  uint64_t PrefetchesIssued = 0; ///< Lines fetched by the prefetcher (bus).
  uint64_t PrefetchesUseful = 0; ///< Demand hits on prefetched lines.

  DomainEvents &operator+=(const DomainEvents &Other);
};

/// The AccessSink implementation backing all simulated experiments.
/// Final, with the Cache/Tlb/Prefetcher units held by value: the batched
/// drain loop in accesses() runs without a virtual hop per event and with
/// all unit calls direct.
class SimSink final : public AccessSink {
public:
  /// Builds the hierarchy for \p ActiveCores active cores on \p P (every
  /// active core runs ThreadsPerCore runtime processes). \p LargePages
  /// switches the TLB to the platform's large page size (Section 3.3
  /// optimization 2).
  SimSink(const Platform &P, unsigned ActiveCores, bool LargePages = false);

  void load(uintptr_t Addr, uint32_t Bytes) override;
  void store(uintptr_t Addr, uint32_t Bytes) override;
  void instructions(uint64_t Count) override;
  void setDomain(CostDomain Domain) override;
  void accesses(const AccessBatch &Batch) override;
  void mapRegion(const void *Base, size_t Size) override;
  void unmapRegion(const void *Base) override;

  /// Clears the event counters but keeps the caches warm (and the
  /// canonical address mapping intact). Flushes buffered events first, so
  /// everything produced before this call lands in the cleared window.
  void resetCounters();

  const DomainEvents &events(CostDomain Domain) const {
    return Events[static_cast<unsigned>(Domain)];
  }
  DomainEvents totalEvents() const;

  const Platform &platform() const { return Plat; }
  unsigned activeCores() const { return Cores; }
  bool largePages() const { return UseLargePages; }

  /// The effective capacities this thread sees (introspection for tests).
  uint64_t effectiveL1DBytes() const { return EffL1DBytes; }
  uint64_t effectiveL2Bytes() const { return EffL2Bytes; }
  unsigned effectiveTlbEntries() const { return EffTlbEntries; }

  /// Number of live canonical regions (introspection for tests).
  size_t mappedRegionCount() const { return Canon.mappedRegionCount(); }

private:
  void touchRange(uint64_t CanonAddr, uint32_t Bytes, bool IsWrite);
  void touchLine(uint64_t Line, bool IsWrite);
  /// The L2 and prefetcher half of touchLine, after an L1D miss.
  void missL1D(uint64_t Line, bool IsWrite, const Cache::Outcome &L1Result,
               DomainEvents &E);
  void installPrefetches(const PrefetchList &List, DomainEvents &E);

  Platform Plat;
  unsigned Cores;
  bool UseLargePages;
  uint64_t EffL1DBytes;
  uint64_t EffL2Bytes;
  unsigned EffTlbEntries;

  Cache L1D;
  Cache L2;
  Tlb Dtlb;
  std::optional<StreamPrefetcher> Prefetcher;

  CanonicalAddressMap Canon;

  /// Line of the previous touchLine (~0 before the first: no line number
  /// reaches it).
  uint64_t LastLine = ~0ull;

  DomainEvents Events[2];
  unsigned DomainIndex = 0; ///< Index into Events for the current domain.
};

} // namespace ddm

#endif // DDM_SIM_SIMSINK_H
