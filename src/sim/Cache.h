//===- sim/Cache.h - Set-associative LRU cache model -----------*- C++ -*-===//
///
/// \file
/// A write-back, write-allocate, set-associative cache with true-LRU
/// replacement. The machine simulator composes two levels of these (per
/// core L1D and a shared-L2 share) and reports the miss/writeback counts
/// that the paper's Figure 8 compares (L1D misses, L2 misses, bus
/// transactions).
///
/// Lines installed by the prefetcher carry a "prefetched" mark so the
/// simulator can count useful prefetches. A fill enters its set just below
/// the MRU position, so it outlives the lines of the set that were last
/// used before it.
///
/// Way state is stored as parallel arrays (tags, 32-bit last-use stamps, a
/// flag byte: 13 bytes per way), and lookups scan a set's ways without
/// early exit; see Cache.cpp for the stamp scheme that makes the victim
/// choice match plain LRU with a first-way tie-break, and for the pass
/// that renumbers the stamps before the 32-bit clock would overflow.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_SIM_CACHE_H
#define DDM_SIM_CACHE_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ddm {

/// Geometry of one cache level.
struct CacheGeometry {
  uint64_t SizeBytes = 32 * 1024;
  unsigned Associativity = 8;
  unsigned LineBytes = 64;
};

/// One level of cache.
class Cache {
public:
  explicit Cache(const CacheGeometry &Geometry);

  /// What happened on an access or install.
  struct Outcome {
    bool Hit = false;
    bool HitWasPrefetched = false; ///< First demand hit on a prefetched line.
    bool Evicted = false;
    uint64_t EvictedLine = 0; ///< Line address (byte addr >> line bits).
    bool EvictedDirty = false;
  };

  /// \name Line-number entry points (the simulation hot path).
  /// The caller splits an access into line numbers once; set index and tag
  /// are computed a single time per call here instead of once per probe.
  /// @{
  Outcome accessLine(uint64_t Line, bool IsWrite) {
    size_t Base = setBase(Line);
    tick();
    unsigned W = findWay(Base, tagOf(Line));
    if (W == Assoc)
      return missLine(Line, Base, IsWrite);
    size_t Slot = Base + W;
    LastSlot = Slot;
    ++Hits;
    Outcome Result;
    Result.Hit = true;
    Result.HitWasPrefetched = Flags[Slot] & PrefetchedBit;
    Flags[Slot] = (Flags[Slot] & DirtyBit) | (IsWrite ? DirtyBit : 0);
    LastUse[Slot] = Clock;
    return Result;
  }
  Outcome installLine(uint64_t Line, bool MarkPrefetched);
  bool probeLine(uint64_t Line) const;
  bool markDirtyLineIfPresent(uint64_t Line);
  /// @}

  /// Repeats the latest accessLine() on the same line. Valid only while no
  /// installLine() or reset() has run since: the line is then still
  /// resident and not marked prefetched, so this is exactly the hit that
  /// accessLine() would record, without the lookup.
  void repeatLastAccess(bool IsWrite) {
    tick();
    ++Hits;
    LastUse[LastSlot] = Clock;
    Flags[LastSlot] |= IsWrite ? DirtyBit : 0;
  }

  /// A demand access to byte address \p Addr. Allocates on miss.
  Outcome access(uintptr_t Addr, bool IsWrite) {
    return accessLine(lineOf(Addr), IsWrite);
  }

  /// Installs the line containing \p Addr without counting a demand access
  /// (prefetch fill). No-op if already present.
  Outcome install(uintptr_t Addr, bool MarkPrefetched) {
    return installLine(lineOf(Addr), MarkPrefetched);
  }

  /// True if the line containing \p Addr is resident.
  bool probe(uintptr_t Addr) const { return probeLine(lineOf(Addr)); }

  /// Marks the line dirty if resident (a writeback arriving from an upper
  /// level). Returns false if the line was absent.
  bool markDirtyIfPresent(uintptr_t Addr) {
    return markDirtyLineIfPresent(lineOf(Addr));
  }

  /// Byte address -> line address.
  uint64_t lineOf(uintptr_t Addr) const { return Addr >> LineShift; }

  unsigned lineBytes() const { return 1u << LineShift; }
  uint64_t numSets() const { return Sets; }
  /// Bytes the model holds: Sets * Assoc lines. The set count is rounded
  /// down to a power of two, so this can be less than the geometry's size.
  uint64_t capacityBytes() const { return Sets * Assoc * lineBytes(); }

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }

  /// Empties the cache and its counters.
  void reset();

  /// The clock's ceiling: an access or install that finds the clock here
  /// renumbers the stamps instead of passing it, so stamps and the clock
  /// always fit in 32 bits.
  static constexpr uint32_t MaxClock = UINT32_MAX - 1;

  /// Test hook: starts the clock at \p Start, so a test reaches the stamp
  /// renumbering without 2^32 accesses. Call it on an empty cache (new or
  /// just reset), where no stamp exists to order against the new clock.
  void setClockForTesting(uint32_t Start) {
    assert(Start >= 1 && Start <= MaxClock && "clock out of range");
    Clock = Start;
  }

private:
  /// Tag of an empty way; never a real tag (line numbers are below 2^60).
  static constexpr uint64_t InvalidTag = ~0ull;
  static constexpr uint8_t DirtyBit = 1;
  static constexpr uint8_t PrefetchedBit = 2;

  /// Advances the clock by one access or install.
  void tick() {
    if (Clock == MaxClock) [[unlikely]]
      renumberStamps();
    ++Clock;
  }
  /// Maps every live stamp and the clock to their ranks (see Cache.cpp).
  void renumberStamps();

  /// First way of \p Line's set in the way arrays.
  size_t setBase(uint64_t Line) const {
    return static_cast<size_t>(Line & (Sets - 1)) * Assoc;
  }
  uint64_t tagOf(uint64_t Line) const { return Line >> SetShift; }
  /// Way of set \p Base holding \p Tag, or Assoc if none. Tags are unique
  /// within a set, so a full scan with no early exit finds the same way as
  /// a first-match search, without a data-dependent branch.
  unsigned findWay(size_t Base, uint64_t Tag) const {
    const uint64_t *T = Tags.data() + Base;
    unsigned Found = Assoc;
    for (unsigned I = 0; I < Assoc; ++I)
      Found = T[I] == Tag ? I : Found;
    return Found;
  }
  /// The demand-miss half of accessLine (\p Base is the line's set).
  Outcome missLine(uint64_t Line, size_t Base, bool IsWrite);
  /// The way of set \p Base to refill.
  unsigned victimWay(size_t Base) const;
  /// Reports way \p Slot's occupant (of set \p Set) as evicted in
  /// \p Result and installs \p Tag there.
  void refill(size_t Slot, uint64_t Set, uint64_t Tag, uint32_t Stamp,
              uint8_t NewFlags, Outcome &Result);

  unsigned LineShift;
  unsigned SetShift; ///< log2(Sets).
  uint64_t Sets;
  unsigned Assoc;
  /// Way state as parallel arrays of Sets * Assoc entries, set-major.
  /// LastUse is 0 exactly for empty ways; see Cache.cpp for the stamps.
  std::vector<uint64_t> Tags;
  std::vector<uint32_t> LastUse;
  std::vector<uint8_t> Flags;
  size_t LastSlot = 0; ///< Way that served the latest accessLine.
  uint32_t Clock = 1;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

} // namespace ddm

#endif // DDM_SIM_CACHE_H
