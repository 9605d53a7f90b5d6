//===- hardening/HardeningConfig.h - Heap-hardening switch -----*- C++ -*-===//
///
/// \file
/// Configuration of the heap-hardening layer (src/hardening). A plain POD
/// with no dependencies so that core/TxAllocator.h can embed it in
/// AllocatorOptions without pulling the hardening implementation into
/// every core include.
///
/// The layer has one mode, the "--harden" production point: cheap enough
/// to pass bench_hardening's <= 5% overhead gate, strong enough that every
/// injected red-zone or quarantine scribble is detected (the 100%
/// detection gate). Its red-zone, quarantine and poison sizes are
/// HardenedAllocator constants.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_HARDENING_HARDENINGCONFIG_H
#define DDM_HARDENING_HARDENINGCONFIG_H

namespace ddm {

/// Whether the factory wraps allocators in a HardenedAllocator.
struct HardeningConfig {
  /// When false the factory returns the bare allocator.
  bool Enabled = false;
};

} // namespace ddm

#endif // DDM_HARDENING_HARDENINGCONFIG_H
