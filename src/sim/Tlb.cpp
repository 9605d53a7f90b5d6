//===- sim/Tlb.cpp - D-TLB model ------------------------------------------===//

#include "sim/Tlb.h"

#include <algorithm>
#include <cassert>

using namespace ddm;

Tlb::Tlb(unsigned NumEntries, uint64_t PageBytes) : MaxEntries(NumEntries) {
  assert(NumEntries >= 1 && "need at least one entry");
  assert(PageBytes != 0 && (PageBytes & (PageBytes - 1)) == 0 &&
         "page size must be a power of two");
  PageShift = static_cast<unsigned>(__builtin_ctzll(PageBytes));
  Pages.assign(NumEntries, 0);
  Prev.assign(NumEntries, Nil);
  Next.assign(NumEntries, Nil);
  // Keep the index at most a quarter full so probe chains stay short.
  size_t Buckets = 4;
  while (Buckets < 4ull * NumEntries)
    Buckets *= 2;
  Index.assign(Buckets, Nil);
  IndexMask = Buckets - 1;
  IndexShift = 64 - static_cast<unsigned>(__builtin_ctzll(Buckets));
}

size_t Tlb::findBucket(uint64_t Page) const {
  size_t B = homeOf(Page);
  while (Index[B] != Nil && Pages[Index[B]] != Page)
    B = (B + 1) & IndexMask;
  return B;
}

void Tlb::indexErase(size_t Hole) {
  // Backward-shift deletion: walk the probe chain after the hole and move
  // back every entry whose home bucket does not lie cyclically in
  // (Hole, B], so no lookup ever meets an empty bucket before its key.
  for (size_t B = (Hole + 1) & IndexMask; Index[B] != Nil;
       B = (B + 1) & IndexMask) {
    size_t Home = homeOf(Pages[Index[B]]);
    if (((B - Home) & IndexMask) >= ((B - Hole) & IndexMask)) {
      Index[Hole] = Index[B];
      Hole = B;
    }
  }
  Index[Hole] = Nil;
}

void Tlb::unlink(uint32_t Slot) {
  uint32_t P = Prev[Slot], N = Next[Slot];
  (P == Nil ? Head : Next[P]) = N;
  (N == Nil ? Tail : Prev[N]) = P;
}

void Tlb::pushFront(uint32_t Slot) {
  Prev[Slot] = Nil;
  Next[Slot] = Head;
  (Head == Nil ? Tail : Prev[Head]) = Slot;
  Head = Slot;
}

bool Tlb::accessSlow(uint64_t Page) {
  size_t B = findBucket(Page);
  if (uint32_t Slot = Index[B]; Slot != Nil) {
    ++Hits;
    unlink(Slot);
    pushFront(Slot);
    return true;
  }
  ++Misses;
  uint32_t Slot;
  if (Used < MaxEntries) {
    Slot = Used++;
  } else {
    // Full: recycle the least recently used entry (the list tail).
    Slot = Tail;
    unlink(Slot);
    indexErase(findBucket(Pages[Slot]));
    // The erase may have shifted the chain through Page's bucket.
    B = findBucket(Page);
  }
  Pages[Slot] = Page;
  Index[B] = Slot;
  pushFront(Slot);
  return false;
}

void Tlb::reset() {
  std::fill(Index.begin(), Index.end(), Nil);
  Used = 0;
  Head = Tail = Nil;
  Hits = Misses = 0;
}
