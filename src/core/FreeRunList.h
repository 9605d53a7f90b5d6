//===- core/FreeRunList.h - First-fit free runs over a frontier -*- C++ -*-===//
///
/// \file
/// The free-run list TCmalloc's page heap, Hoard's large-object runs and
/// the segment pool's multi-segment runs share. Units (pages, superblocks,
/// segments) come from a bump frontier that never moves back; released
/// runs merge with both neighbours, and a request takes the first run that
/// fits, splitting off the rest. The list prices nothing: it returns what
/// it did (runs scanned, runs merged, split or not), and each caller
/// charges that to its own model.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_CORE_FREERUNLIST_H
#define DDM_CORE_FREERUNLIST_H

#include <cstddef>
#include <cstdint>
#include <map>

namespace ddm {

/// Free runs of units below a bump frontier, in [0, capacity()).
class FreeRunList {
public:
  static constexpr size_t NoRun = SIZE_MAX;

  /// What a take did. First is NoRun when nothing was taken.
  struct Take {
    size_t First = NoRun;
    size_t Length = 0;  ///< Units taken.
    size_t Scanned = 0; ///< Free runs the first-fit search examined.
    bool Split = false; ///< The run taken from was longer than the take.
  };

  explicit FreeRunList(size_t Capacity) : Capacity(Capacity) {}

  /// Takes \p Length contiguous units: the first free run that fits,
  /// else the frontier. Scanned counts the runs examined, also when the
  /// frontier is exhausted and nothing is taken.
  Take take(size_t Length);

  /// Takes up to \p MaxLength fresh units from the frontier only (fewer
  /// at its end, none when it is exhausted); never reuses a free run.
  Take takeFresh(size_t MaxLength);

  /// Takes up to \p MaxLength units from the front of the lowest free
  /// run; nothing when no run is free.
  Take takeLowest(size_t MaxLength);

  /// Returns a run previously taken, merging it with the free runs on
  /// either side. Returns the number of merges (0, 1 or 2).
  unsigned release(size_t First, size_t Length);

  /// First never-taken unit; every unit below it has been handed out at
  /// least once, so it is also the high-water mark.
  size_t frontier() const { return Frontier; }
  size_t runCount() const { return Runs.size(); }

  /// Structural walk: every run is non-empty, ends at or below the
  /// frontier, and is disjoint from and not adjacent to the next one (two
  /// adjacent runs mean a missed merge).
  bool verify() const;

private:
  using RunMap = std::map<size_t, size_t>; ///< First unit -> run length.

  /// Takes \p Length units from the front of the run at \p It, putting
  /// the rest back.
  Take cut(RunMap::iterator It, size_t Length, size_t Scanned);

  size_t Capacity;
  size_t Frontier = 0;
  RunMap Runs;
};

} // namespace ddm

#endif // DDM_CORE_FREERUNLIST_H
