//===- sim/Cache.cpp - Set-associative LRU cache model --------------------===//

#include "sim/Cache.h"

#include <algorithm>
#include <cassert>

using namespace ddm;

namespace {

unsigned log2Exact(uint64_t Value) {
  assert(Value != 0 && (Value & (Value - 1)) == 0 && "not a power of two");
  return static_cast<unsigned>(__builtin_ctzll(Value));
}

} // namespace

// Way state. A way is empty exactly when its LastUse is 0 (its tag is
// then InvalidTag, which no lookup matches). The clock starts at 1 and
// advances once per accessLine/installLine; a demand access stamps the new
// clock value and a prefetch fill stamps one less, so live stamps are
// always >= 1. Stamps are the reference model's (clock from 0, fill at
// clock - 1) plus one, which keeps their order, and their ties, intact.

Cache::Cache(const CacheGeometry &Geometry) {
  assert(Geometry.LineBytes >= 16 && "line too small");
  LineShift = log2Exact(Geometry.LineBytes);
  Assoc = Geometry.Associativity;
  assert(Assoc >= 1 && "need at least one way");
  uint64_t Lines = Geometry.SizeBytes / Geometry.LineBytes;
  if (Lines < Assoc)
    Lines = Assoc; // degenerate tiny caches become fully associative
  Sets = Lines / Assoc;
  // Round the set count down to a power of two for cheap indexing.
  while (Sets & (Sets - 1))
    Sets &= Sets - 1;
  if (Sets == 0)
    Sets = 1;
  SetShift = log2Exact(Sets);
  Tags.assign(Sets * Assoc, InvalidTag);
  LastUse.assign(Sets * Assoc, 0);
  Flags.assign(Sets * Assoc, 0);
}

unsigned Cache::victimWay(size_t Base) const {
  // The first way with the strictly smallest stamp: the first empty way if
  // there is one (stamp 0), otherwise the first least recently used way.
  // A fill shares its stamp with the access just before it, so ties are
  // real and the first-wins order matters.
  const uint64_t *L = LastUse.data() + Base;
  unsigned Victim = 0;
  uint64_t Oldest = L[0];
  for (unsigned I = 1; I < Assoc; ++I) {
    bool Older = L[I] < Oldest;
    Victim = Older ? I : Victim;
    Oldest = Older ? L[I] : Oldest;
  }
  return Victim;
}

void Cache::refill(size_t Slot, uint64_t Set, uint64_t Tag, uint64_t Stamp,
                   uint8_t NewFlags, Outcome &Result) {
  if (LastUse[Slot] != 0) {
    Result.Evicted = true;
    Result.EvictedLine = (Tags[Slot] << SetShift) | Set;
    Result.EvictedDirty = Flags[Slot] & DirtyBit;
  }
  Tags[Slot] = Tag;
  LastUse[Slot] = Stamp;
  Flags[Slot] = NewFlags;
}

Cache::Outcome Cache::missLine(uint64_t Line, size_t Base, bool IsWrite) {
  assert(tagOf(Line) != InvalidTag && "line number out of range");
  ++Misses;
  Outcome Result;
  size_t Slot = Base + victimWay(Base);
  LastSlot = Slot;
  refill(Slot, Line & (Sets - 1), tagOf(Line), Clock, IsWrite ? DirtyBit : 0,
         Result);
  return Result;
}

Cache::Outcome Cache::installLine(uint64_t Line, bool MarkPrefetched) {
  uint64_t Set = Line & (Sets - 1);
  size_t Base = static_cast<size_t>(Set) * Assoc;
  uint64_t Tag = tagOf(Line);
  assert(Tag != InvalidTag && "line number out of range");
  ++Clock;
  Outcome Result;
  if (findWay(Base, Tag) != Assoc) {
    Result.Hit = true;
    return Result; // already resident; do not disturb LRU on a prefetch
  }
  // The fill is stamped one tick below the current clock: just under MRU,
  // not near the LRU end. It ties with the access just before it (the
  // earlier way wins a tie) and is younger than every line of its set used
  // before that, so it outlives them; only lines demanded after the fill
  // are younger. An unused prefetch therefore takes a set's worth of newer
  // misses to age out.
  refill(Base + victimWay(Base), Set, Tag, Clock - 1,
         MarkPrefetched ? PrefetchedBit : 0, Result);
  return Result;
}

bool Cache::probeLine(uint64_t Line) const {
  return findWay(setBase(Line), tagOf(Line)) != Assoc;
}

bool Cache::markDirtyLineIfPresent(uint64_t Line) {
  size_t Base = setBase(Line);
  unsigned W = findWay(Base, tagOf(Line));
  if (W == Assoc)
    return false;
  Flags[Base + W] |= DirtyBit;
  return true;
}

void Cache::reset() {
  std::fill(Tags.begin(), Tags.end(), InvalidTag);
  std::fill(LastUse.begin(), LastUse.end(), 0);
  std::fill(Flags.begin(), Flags.end(), 0);
  LastSlot = 0;
  Clock = 1;
  Hits = Misses = 0;
}
