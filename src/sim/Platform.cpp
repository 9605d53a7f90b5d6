//===- sim/Platform.cpp - Machine-model presets ----------------------------===//

#include "sim/Platform.h"

using namespace ddm;

Platform ddm::xeonLike() {
  Platform P;
  P.Name = "xeon";
  P.FreqGHz = 1.86;
  P.Cores = 8;
  P.ThreadsPerCore = 1;
  P.BaseIpc = 1.6; // out-of-order, 4-wide, interpreter-style code
  P.L1D = CacheGeometry{32 * 1024, 8, 64};
  P.L1IBytes = 32 * 1024;
  P.L2Bytes = 4ull * 1024 * 1024;
  P.L2Assoc = 16;
  P.CoresPerL2 = 2;
  P.TlbEntries = 256;
  P.PageBytes = 4 * 1024;
  P.LargePageBytes = 2 * 1024 * 1024;
  P.TlbMissPenaltyCycles = 35; // hardware page walk
  P.L2HitLatencyCycles = 14;
  P.MemLatencyCycles = 220;
  // FSB-era bandwidth: ~3.5 GB/s effective for the whole box at 1.86 GHz.
  P.BusBytesPerCycle = 1.9;
  P.HasPrefetcher = true;
  P.OooOverlap = 0.35;
  P.BaseIMissPerInstr = 0.004;
  return P;
}

Platform ddm::niagaraLike() {
  Platform P;
  P.Name = "niagara";
  P.FreqGHz = 1.2;
  P.Cores = 8;
  P.ThreadsPerCore = 4;
  P.BaseIpc = 1.0; // single-issue in-order pipeline per core
  P.L1D = CacheGeometry{8 * 1024, 4, 64};
  P.L1IBytes = 16 * 1024;
  P.L2Bytes = 3ull * 1024 * 1024;
  P.L2Assoc = 12;
  P.CoresPerL2 = 8; // one banked L2 shared by the whole chip
  P.TlbEntries = 64;
  P.PageBytes = 8 * 1024;
  P.LargePageBytes = 4 * 1024 * 1024;
  P.TlbMissPenaltyCycles = 110; // software refill trap
  P.L2HitLatencyCycles = 22;
  P.MemLatencyCycles = 130;
  // Four on-chip memory controllers; effective write bandwidth is far
  // below the headline number: ~4.3 GB/s at 1.2 GHz.
  P.BusBytesPerCycle = 4.2;
  P.HasPrefetcher = false;
  P.OooOverlap = 0.0; // in-order: stalls are fully exposed to the thread
  P.BaseIMissPerInstr = 0.006;
  return P;
}

std::optional<Platform> ddm::platformByName(const std::string &Name) {
  if (Name == "xeon")
    return xeonLike();
  if (Name == "niagara")
    return niagaraLike();
  return std::nullopt;
}

bool ddm::validateActiveCores(const Platform &P, uint64_t Cores,
                              std::string &Error) {
  if (Cores >= 1 && Cores <= P.Cores) {
    Error.clear();
    return true;
  }
  Error = "core count must be 1.." + std::to_string(P.Cores) + " on the " +
          P.Name + "-like platform (got " + std::to_string(Cores) + ")";
  return false;
}
