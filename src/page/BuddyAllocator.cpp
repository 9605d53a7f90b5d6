//===- page/BuddyAllocator.cpp - Binary buddy page allocator --------------===//

#include "page/BuddyAllocator.h"
#include "support/Error.h"

#include <cassert>

using namespace ddm;

namespace {

size_t checkedPageCount(size_t Pages) {
  if (Pages == 0)
    fatal("buddy allocator needs at least one page");
  if (Pages > BuddyAllocator::NoPage)
    fatal("buddy allocator span exceeds the 32-bit page-index space");
  return Pages;
}

} // namespace

BuddyAllocator::BuddyAllocator(size_t Pages, unsigned MaxOrderIn)
    : NumPages(checkedPageCount(Pages)), MaxOrder(MaxOrderIn),
      NextPlusOne(NumPages), PrevPlusOne(NumPages),
      AllocOrderPlusOne(NumPages) {
  FreeHead.assign(MaxOrder + 1, NoPage);
  Stats.assign(MaxOrder + 1, BuddyOrderStats());
  PairBits.resize(MaxOrder);
  for (unsigned Order = 0; Order < MaxOrder; ++Order) {
    size_t Pairs = (NumPages >> (Order + 1)) + 1;
    PairBits[Order].assign((Pairs + 63) / 64, 0);
  }

  // Seed the span as the maximal aligned blocks that tile it. Each seed
  // free toggles its pair bit once; the (absent) buddies never toggle, so
  // runtime frees at a seed boundary see a one bit and stop — blocks
  // cannot coalesce past the edge of the span.
  size_t Pos = 0;
  while (Pos < NumPages) {
    unsigned Order = MaxOrder;
    while (Order > 0 && ((Pos & ((size_t(1) << Order) - 1)) != 0 ||
                         Pos + (size_t(1) << Order) > NumPages))
      --Order;
    pushFree(static_cast<uint32_t>(Pos), Order);
    if (Order < MaxOrder)
      togglePair(static_cast<uint32_t>(Pos), Order);
    FreePages += size_t(1) << Order;
    Pos += size_t(1) << Order;
  }
}

unsigned BuddyAllocator::orderFor(size_t Pages) {
  unsigned Order = 0;
  while ((size_t(1) << Order) < Pages)
    ++Order;
  return Order;
}

void BuddyAllocator::pushFree(uint32_t First, unsigned Order) {
  setNext(First, FreeHead[Order]);
  setPrev(First, NoPage);
  if (FreeHead[Order] != NoPage)
    setPrev(FreeHead[Order], First);
  FreeHead[Order] = First;
}

void BuddyAllocator::unlinkFree(uint32_t First, unsigned Order) {
  uint32_t Before = prev(First);
  uint32_t After = next(First);
  if (Before != NoPage)
    setNext(Before, After);
  else
    FreeHead[Order] = After;
  if (After != NoPage)
    setPrev(After, Before);
  setNext(First, NoPage);
  setPrev(First, NoPage);
}

unsigned BuddyAllocator::togglePair(uint32_t First, unsigned Order) {
  if (Order >= MaxOrder)
    return 1;
  size_t Pair = size_t(First) >> (Order + 1);
  uint64_t Mask = uint64_t(1) << (Pair & 63);
  uint64_t &Word = PairBits[Order][Pair >> 6];
  Word ^= Mask;
  return (Word & Mask) ? 1 : 0;
}

uint32_t BuddyAllocator::allocPages(unsigned Order) {
  assert(Order <= MaxOrder && "order out of range");
  unsigned From = Order;
  while (From <= MaxOrder && FreeHead[From] == NoPage)
    ++From;
  if (From > MaxOrder)
    return NoPage;

  uint32_t Block = FreeHead[From];
  unlinkFree(Block, From);
  togglePair(Block, From);

  // Split down to the requested order, freeing the upper half each time.
  while (From > Order) {
    --From;
    uint32_t Buddy = Block + (uint32_t(1) << From);
    pushFree(Buddy, From);
    togglePair(Buddy, From);
    ++Stats[From].Splits;
  }

  setAllocatedOrder(Block, static_cast<uint8_t>(Order));
  ++Stats[Order].Allocs;
  FreePages -= size_t(1) << Order;
  return Block;
}

void BuddyAllocator::freePages(uint32_t First, unsigned Order) {
  assert(Order <= MaxOrder && "order out of range");
  assert(First < NumPages && "page index out of range");
  if (allocatedOrderAt(First) != Order)
    fatal("buddy free of a block that was not allocated at this order");
  setAllocatedOrder(First, NoOrder);
  ++Stats[Order].Frees;
  FreePages += size_t(1) << Order;

  while (Order < MaxOrder) {
    if (togglePair(First, Order) != 0)
      break; // Buddy busy or absent: the merge stops here.
    uint32_t Buddy = First ^ (uint32_t(1) << Order);
    unlinkFree(Buddy, Order);
    ++Stats[Order].Coalesces;
    if (Buddy < First)
      First = Buddy;
    ++Order;
  }
  pushFree(First, Order);
}

size_t BuddyAllocator::largestFreeBlockPages() const {
  for (unsigned Order = MaxOrder + 1; Order-- > 0;)
    if (FreeHead[Order] != NoPage)
      return size_t(1) << Order;
  return 0;
}

uint64_t BuddyAllocator::totalSplits() const {
  uint64_t Total = 0;
  for (const BuddyOrderStats &S : Stats)
    Total += S.Splits;
  return Total;
}

uint64_t BuddyAllocator::totalCoalesces() const {
  uint64_t Total = 0;
  for (const BuddyOrderStats &S : Stats)
    Total += S.Coalesces;
  return Total;
}

size_t BuddyAllocator::freeBlocksAt(unsigned Order) const {
  size_t Count = 0;
  for (uint32_t At = FreeHead[Order]; At != NoPage; At = next(At))
    ++Count;
  return Count;
}

size_t BuddyAllocator::residentBookkeepingBytes() const {
  return NextPlusOne.residentBytes() + PrevPlusOne.residentBytes() +
         AllocOrderPlusOne.residentBytes();
}

bool BuddyAllocator::verify() const {
  std::vector<uint8_t> Seen(NumPages, 0); // 1 = free block, 2 = allocated.
  size_t FreeTotal = 0;
  for (unsigned Order = 0; Order <= MaxOrder; ++Order) {
    for (uint32_t At = FreeHead[Order]; At != NoPage; At = next(At)) {
      size_t Span = size_t(1) << Order;
      if ((At & (Span - 1)) != 0 || At + Span > NumPages)
        return false; // Misaligned or out-of-range free block.
      for (size_t I = 0; I < Span; ++I) {
        if (Seen[At + I])
          return false; // Overlapping free blocks.
        Seen[At + I] = 1;
      }
      if (next(At) != NoPage && prev(next(At)) != At)
        return false; // Broken list linkage.
      FreeTotal += Span;
    }
  }
  if (FreeTotal != FreePages)
    return false;
  for (uint32_t Page = 0; Page < NumPages; ++Page) {
    uint8_t Order = allocatedOrderAt(Page);
    if (Order == NoOrder)
      continue;
    size_t Span = size_t(1) << Order;
    if ((Page & (Span - 1)) != 0 || Page + Span > NumPages)
      return false; // Misaligned or out-of-range allocated block.
    for (size_t I = 0; I < Span; ++I) {
      if (Seen[Page + I])
        return false; // Allocated block overlaps a free one.
      Seen[Page + I] = 2;
    }
  }
  return true;
}
