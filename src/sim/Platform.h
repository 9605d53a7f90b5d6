//===- sim/Platform.h - Machine-model presets ------------------*- C++ -*-===//
///
/// \file
/// The two simulated platforms of the paper's evaluation (Section 4.1):
///
///  - "Xeon-like": a Clovertown-class part. Eight out-of-order cores at
///    1.86 GHz, 32 KB L1s, 4 MB of L2 shared per pair of cores, a hardware
///    stream prefetcher, hardware-walked TLB, and — crucially — a
///    front-side-bus-era memory interface whose bandwidth is small
///    relative to eight cores' demand.
///  - "Niagara-like": an UltraSPARC T1-class part. Eight in-order cores at
///    1.2 GHz with 4-way fine-grained multithreading (32 hardware
///    threads), tiny L1s shared by the 4 threads of a core, one 3 MB L2
///    shared by everything, no prefetcher, software TLB refill, and a
///    memory system with considerably more bandwidth headroom per core.
///
/// The parameters are calibrated so the model's relative behaviour matches
/// the paper's; absolute throughput is in the right ballpark but is not
/// the claim (see EXPERIMENTS.md).
///
//===----------------------------------------------------------------------===//

#ifndef DDM_SIM_PLATFORM_H
#define DDM_SIM_PLATFORM_H

#include "sim/Cache.h"

#include <cstdint>
#include <optional>
#include <string>

namespace ddm {

/// Full description of a simulated platform.
struct Platform {
  std::string Name;
  double FreqGHz;
  unsigned Cores;
  unsigned ThreadsPerCore;

  /// Base instructions-per-cycle of one thread context when nothing
  /// stalls.
  double BaseIpc;

  CacheGeometry L1D; ///< Per core (shared by a core's threads).
  uint64_t L1IBytes;
  uint64_t L2Bytes;       ///< Per L2 instance.
  unsigned L2Assoc;
  unsigned CoresPerL2;    ///< Cores sharing one L2 instance.

  unsigned TlbEntries;
  uint64_t PageBytes;      ///< Default page size.
  uint64_t LargePageBytes; ///< Page size with the large-page optimization.
  double TlbMissPenaltyCycles;

  double L2HitLatencyCycles; ///< L1 miss, L2 hit.
  double MemLatencyCycles;   ///< L2 miss, uncontended.

  /// Total memory bandwidth of the machine, in bytes per core-clock cycle.
  double BusBytesPerCycle;

  bool HasPrefetcher;

  /// Fraction of memory stall cycles the out-of-order engine hides.
  double OooOverlap;

  /// L1I miss probability per instruction when the active code footprint
  /// is twice the L1I capacity (scales with overflow; see Performance).
  double BaseIMissPerInstr;

  unsigned totalThreads() const { return Cores * ThreadsPerCore; }
};

/// The Clovertown-class preset.
Platform xeonLike();

/// The UltraSPARC-T1-class preset.
Platform niagaraLike();

/// Looks a preset up by name ("xeon" or "niagara"); nullopt on mismatch.
std::optional<Platform> platformByName(const std::string &Name);

/// Validates a user-supplied --cores value against \p P. On failure fills
/// \p Error with a printable message and returns false. Shared by every
/// CLI driver so none of them silently accepts an impossible core count.
bool validateActiveCores(const Platform &P, uint64_t Cores,
                         std::string &Error);

} // namespace ddm

#endif // DDM_SIM_PLATFORM_H
