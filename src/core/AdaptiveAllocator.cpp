//===- core/AdaptiveAllocator.cpp - Phase-adaptive placement --------------===//

#include "core/AdaptiveAllocator.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>

using namespace ddm;

AllocatorKind ddm::choosePlacement(const StreamWindowStats &W) {
  if (W.Mallocs == 0)
    return AllocatorKind::Default;
  // Almost nothing freed: transaction-scoped data, reclaimed in bulk.
  if (W.freeRatio() < 0.25) {
    // Strictly LIFO frees on top of a bulk phase are the obstack
    // discipline (grow, trim back, grow again).
    if (W.Frees > 0 && W.lifoRatio() > 0.9)
      return AllocatorKind::Obstack;
    return AllocatorKind::Region;
  }
  // Churny phase: per-object reuse is mandatory. Slabs win when the
  // objects are small — interpreters allocate a handful of small fixed
  // sizes, and per-class slabs keep each of them on a warm free list; a
  // single overwhelming class is an even stronger signal. Large or mixed
  // sizes go to the general-purpose heap.
  double MeanBytes = static_cast<double>(W.BytesRequested) /
                     static_cast<double>(W.Mallocs);
  if (W.dominantClassRatio() > 0.6 || MeanBytes <= 256.0)
    return AllocatorKind::Slab;
  return AllocatorKind::Default;
}

namespace {

/// First strategy, before any evidence.
constexpr AllocatorKind InitialKind = AllocatorKind::Default;

/// Modeled bookkeeping instructions mirrored into the sink per
/// allocate/deallocate (the wrapper's own cost): the windowed stream
/// statistics are a handful of counter updates plus one stack-top compare
/// per op.
constexpr uint64_t InstrPerOp = 3;

unsigned sizeClassOf(size_t Size) {
  // Power-of-two classes, class 15 collects everything >= 16 KB.
  unsigned Class = 0;
  size_t Bound = 1;
  while (Class < 15 && Size > Bound) {
    ++Class;
    Bound <<= 1;
  }
  return Class;
}

} // namespace

AdaptiveAllocator::AdaptiveAllocator(const AllocatorOptions &Options)
    : InnerOptions(Options), CurrentKind(InitialKind),
      LastRecommendation(InitialKind) {
  InnerOptions.Hardening = HardeningConfig();
  rebuildInner(CurrentKind);
}

AdaptiveAllocator::~AdaptiveAllocator() = default;

void AdaptiveAllocator::rebuildInner(AllocatorKind Kind) {
  Inner.reset(); // Release the old heap before reserving the new one.
  CurrentKind = Kind;
  Inner = createAllocator(Kind, InnerOptions);
  Inner->attachSink(RawSink);
}

void AdaptiveAllocator::attachSink(AccessSink *S) {
  RawSink = S;
  Sink.attach(S);
  Inner->attachSink(S);
}

void *AdaptiveAllocator::allocate(size_t Size) {
  void *Ptr = Inner->allocate(Size);
  if (!Ptr)
    return nullptr;
  Sink.instructions(InstrPerOp);
  size_t InnerUsable = Inner->usableSize(Ptr);
  size_t Usable = InnerUsable > Size ? InnerUsable : Size;
  uint64_t Seq = NextSeq++;
  Live.emplace(Ptr, ObjectInfo{Size, Usable, Seq});
  AllocStack.emplace_back(Ptr, Seq);
  ++Window.Mallocs;
  Window.BytesRequested += Size;
  ++ClassMallocs[sizeClassOf(Size)];
  noteMalloc(Size, Usable);
  return Ptr;
}

bool AdaptiveAllocator::isLiveEntry(
    const std::pair<const void *, uint64_t> &Entry) const {
  auto It = Live.find(Entry.first);
  return It != Live.end() && It->second.Seq == Entry.second;
}

void AdaptiveAllocator::popStaleStackTops() {
  while (!AllocStack.empty() && !isLiveEntry(AllocStack.back()))
    AllocStack.pop_back();
}

void AdaptiveAllocator::deallocate(void *Ptr) {
  if (!Ptr)
    return;
  Sink.instructions(InstrPerOp);
  auto It = Live.find(Ptr);
  if (It == Live.end())
    fatal("AdaptiveAllocator::deallocate: pointer was never allocated here "
          "(or already freed)");
  ++Window.Frees;
  popStaleStackTops();
  if (!AllocStack.empty() && AllocStack.back().first == Ptr &&
      AllocStack.back().second == It->second.Seq) {
    ++Window.LifoFrees;
    AllocStack.pop_back();
  }
  noteFree(It->second.Usable);
  Live.erase(It);
  Inner->deallocate(Ptr);
  // Mid-stack frees leave stale entries behind; rebuild once they
  // dominate so the stack stays proportional to the live set.
  if (AllocStack.size() > 2 * Live.size() + 64) {
    size_t Out = 0;
    for (const auto &Entry : AllocStack)
      if (isLiveEntry(Entry))
        AllocStack[Out++] = Entry;
    AllocStack.resize(Out);
  }
  // All objects gone mid-phase (the Ruby-style churn shape): this is as
  // safe a point as a freeAll boundary, so the policy gets to act here
  // too — without it a runtime that never bulk-frees could never switch.
  if (Live.empty())
    maybeSwitch();
}

void *AdaptiveAllocator::reallocate(void *Ptr, size_t OldSize,
                                    size_t NewSize) {
  ++Stats.ReallocCalls;
  ++Window.Reallocs;
  if (!Ptr)
    return allocate(NewSize);
  auto It = Live.find(Ptr);
  if (It == Live.end())
    fatal("AdaptiveAllocator::reallocate: pointer was never allocated here "
          "(or already freed)");
  size_t OldUsable = It->second.Usable;
  void *Fresh = Inner->reallocate(Ptr, OldSize, NewSize);
  if (!Fresh)
    return nullptr;
  Sink.instructions(InstrPerOp);
  size_t InnerUsable = Inner->usableSize(Fresh);
  size_t Usable = InnerUsable > NewSize ? InnerUsable : NewSize;
  uint64_t Seq = NextSeq++;
  Live.erase(It);
  Live.emplace(Fresh, ObjectInfo{NewSize, Usable, Seq});
  // The old entry just went stale; the grown object is now the newest.
  popStaleStackTops();
  AllocStack.emplace_back(Fresh, Seq);
  Stats.UsableBytesLive += Usable;
  Stats.UsableBytesLive -= OldUsable;
  if (Stats.UsableBytesLive > Stats.PeakUsableBytesLive)
    Stats.PeakUsableBytesLive = Stats.UsableBytesLive;
  return Fresh;
}

void AdaptiveAllocator::freeAll() {
  if (Inner->supportsBulkFree()) {
    Inner->freeAll();
  } else {
    // The slab strategy reclaims per object, so adaptive's bulk-free
    // promise is kept by sweeping the live table — in allocation order,
    // because the hash table iterates in an order derived from real
    // pointer values (ASLR), and the frees mirrored into the sink plus
    // the inner free-list state must not.
    std::vector<std::pair<uint64_t, void *>> Order;
    Order.reserve(Live.size());
    for (const auto &[Ptr, Info] : Live)
      Order.emplace_back(Info.Seq, const_cast<void *>(Ptr));
    std::sort(Order.begin(), Order.end());
    for (const auto &[Seq, Ptr] : Order)
      Inner->deallocate(Ptr);
  }
  Live.clear();
  AllocStack.clear();
  noteFreeAll();
  maybeSwitch();
}

void AdaptiveAllocator::maybeSwitch() {
  assert(Live.empty() && "strategy switch with objects live");
  AllocStack.clear(); // Nothing live: every remaining entry is stale.
  if (Window.Mallocs < MinWindowMallocs)
    return; // Carry the window forward; too little evidence.
  uint64_t Dominant = 0;
  for (uint64_t Count : ClassMallocs)
    if (Count > Dominant)
      Dominant = Count;
  Window.DominantClassMallocs = Dominant;
  AllocatorKind Recommendation = choosePlacement(Window);
  if (HaveRecommendation && Recommendation == LastRecommendation &&
      Recommendation != CurrentKind) {
    rebuildInner(Recommendation);
    ++Switches;
  }
  LastRecommendation = Recommendation;
  HaveRecommendation = true;
  Window = StreamWindowStats();
  for (uint64_t &Count : ClassMallocs)
    Count = 0;
}

bool AdaptiveAllocator::supportsPerObjectFree() const {
  return Inner->supportsPerObjectFree();
}

size_t AdaptiveAllocator::usableSize(const void *Ptr) const {
  auto It = Live.find(Ptr);
  return It == Live.end() ? 0 : It->second.Usable;
}

uint64_t AdaptiveAllocator::memoryConsumption() const {
  return Inner->memoryConsumption();
}
