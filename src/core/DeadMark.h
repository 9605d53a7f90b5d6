//===- core/DeadMark.h - Double-free marks for bump allocators -*- C++ -*-===//
///
/// \file
/// The region and obstack allocators reclaim memory only in bulk, but they
/// still validate every free: it stamps a mark salted by the heap's free
/// epoch into the dead object's first word, and a free that finds its own
/// mark already there is a double free. A bump heap hands out each address
/// at most once per epoch, and every epoch of every bump heap in the
/// process comes from one counter, so a stale mark — from an earlier epoch
/// of this heap, or from a dead heap whose recycled backend pages a new
/// heap hands out again — can never false-positive.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_CORE_DEADMARK_H
#define DDM_CORE_DEADMARK_H

#include <cstdint>

namespace ddm {

/// A free epoch no bump heap in the process has used before. Heaps take
/// one at construction and one at every freeAll.
uint64_t takeFreeAllEpoch();

/// Stamps the dead mark of \p Epoch into the object at \p Ptr (at least 8
/// bytes, 8-aligned). Aborts with "heap corruption detected: double free
/// of <What>" when the mark is already there.
void stampDeadMark(void *Ptr, uint64_t Epoch, const char *What);

} // namespace ddm

#endif // DDM_CORE_DEADMARK_H
