//===- sim/Tlb.h - D-TLB model ---------------------------------*- C++ -*-===//
///
/// \file
/// A fully-associative, LRU data-TLB. The paper's Section 3.3 optimization
/// 2 (large pages) and the Figure 8 D-TLB-miss comparison both hinge on
/// this model: with 4 MB pages a whole transaction's heap fits in a
/// handful of entries, cutting misses by the >60% the paper reports.
///
/// Every operation is O(1). Entries live in a fixed slot array threaded by
/// an intrusive recency list (head = most recently used, tail = the LRU
/// victim), and an open-addressed page -> slot index finds a page's slot.
/// Because each access is a distinct point in time, "evict the entry with
/// the oldest last use" is exactly "evict the list tail", so this is the
/// same LRU policy a timestamp-per-entry model implements.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_SIM_TLB_H
#define DDM_SIM_TLB_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ddm {

/// Fully-associative LRU TLB.
class Tlb {
public:
  /// \p Entries translation entries over pages of \p PageBytes (a power of
  /// two).
  Tlb(unsigned Entries, uint64_t PageBytes);

  /// Returns true on a TLB hit for byte address \p Addr.
  bool access(uintptr_t Addr) {
    uint64_t Page = Addr >> PageShift;
    // Runs of accesses to one page are the common case: a hit on the MRU
    // entry changes nothing but the hit count.
    if (Head != Nil && Pages[Head] == Page) {
      ++Hits;
      return true;
    }
    return accessSlow(Page);
  }

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }
  uint64_t pageBytes() const { return 1ull << PageShift; }

  void reset();

private:
  static constexpr uint32_t Nil = ~0u;

  bool accessSlow(uint64_t Page);

  /// Home bucket of \p Page in the index (multiplicative hash).
  size_t homeOf(uint64_t Page) const {
    return static_cast<size_t>((Page * 0x9e3779b97f4a7c15ull) >> IndexShift);
  }
  /// Index bucket holding \p Page's slot, or the empty bucket ending its
  /// probe chain if \p Page is absent.
  size_t findBucket(uint64_t Page) const;
  /// Empties bucket \p Hole, shifting its probe chain back over it.
  void indexErase(size_t Hole);

  void unlink(uint32_t Slot);
  void pushFront(uint32_t Slot);

  unsigned MaxEntries;
  unsigned PageShift;
  unsigned IndexShift; ///< 64 - log2(Index.size()).
  size_t IndexMask;

  /// Slot arrays: the page held by each used slot and its recency links.
  std::vector<uint64_t> Pages;
  std::vector<uint32_t> Prev;
  std::vector<uint32_t> Next;
  uint32_t Used = 0; ///< Slots [0, Used) hold entries.
  uint32_t Head = Nil;
  uint32_t Tail = Nil;

  /// Linear-probing page -> slot index (Nil = empty bucket), at most a
  /// quarter full; deletes shift later probe-chain members back.
  std::vector<uint32_t> Index;

  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

} // namespace ddm

#endif // DDM_SIM_TLB_H
