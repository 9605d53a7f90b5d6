//===- core/SegmentPool.cpp - Sharded segment pool for DDmalloc ----------===//

#include "core/SegmentPool.h"
#include "support/Error.h"
#include "support/FaultInjection.h"

#include <cassert>

using namespace ddm;

static AlignedArena reserveOrDie(const SharedSegmentPool::Config &C) {
  assert((C.SegmentSize & (C.SegmentSize - 1)) == 0 &&
         "segment size must be a power of two");
  assert(C.SegmentSize >= 4096 && "segment size too small");
  if (C.ReserveBytes < 4 * C.SegmentSize)
    fatal("segment pool reservation too small: need at least 4 segments");
  return AlignedArena(C.ReserveBytes, C.SegmentSize);
}

SharedSegmentPool::SharedSegmentPool(const Config &C)
    : Cfg(C), Arena(reserveOrDie(C)),
      NumSegments(Arena.size() / Cfg.SegmentSize), Runs(NumSegments) {
  unsigned Stripes = C.Stripes ? C.Stripes : 1;
  Lists.reserve(Stripes);
  for (unsigned I = 0; I < Stripes; ++I)
    Lists.push_back(std::make_unique<Stripe>());
}

std::shared_ptr<SharedSegmentPool>
SharedSegmentPool::tryCreate(const Config &C, std::string *ErrorOut) {
  if (C.SegmentSize < 4096 || (C.SegmentSize & (C.SegmentSize - 1)) != 0) {
    if (ErrorOut)
      *ErrorOut = "segment size must be a power of two >= 4096";
    return nullptr;
  }
  if (C.ReserveBytes < 4 * C.SegmentSize) {
    if (ErrorOut)
      *ErrorOut = "segment pool reservation too small: need at least 4 segments";
    return nullptr;
  }
  // Probe the reservation non-fatally; the constructor's own (fatal)
  // reservation of the same size succeeds whenever the probe did.
  {
    std::string MapError;
    std::optional<AlignedArena> Probe =
        AlignedArena::tryReserve(C.ReserveBytes, C.SegmentSize, &MapError);
    if (!Probe) {
      if (ErrorOut)
        *ErrorOut = "segment pool reservation of " +
                    std::to_string(C.ReserveBytes) + " bytes failed (" +
                    MapError + ")";
      return nullptr;
    }
  }
  return std::make_shared<SharedSegmentPool>(C);
}

size_t SharedSegmentPool::acquireSegments(unsigned Shard, uint32_t *Out,
                                          size_t MaxCount) {
  assert(MaxCount > 0 && "must request at least one segment");
  if (faultShouldFail(FaultSite::SegmentAcquire))
    return 0;
  unsigned NumStripes = static_cast<unsigned>(Lists.size());
  Shard %= NumStripes;

  size_t Got = 0;
  // 1) The shard's own stripe: the common refill source once the workload
  //    reaches steady state.
  {
    Stripe &Own = *Lists[Shard];
    std::lock_guard<std::mutex> Lock(Own.M);
    while (Got < MaxCount && !Own.Free.empty()) {
      Out[Got++] = Own.Free.back();
      Own.Free.pop_back();
    }
  }
  if (Got == MaxCount) {
    Outstanding.fetch_add(Got, std::memory_order_relaxed);
    return Got;
  }
  Misses.fetch_add(1, std::memory_order_relaxed);

  // 2) The bump frontier: fresh segments while the arena still has room.
  {
    std::lock_guard<std::mutex> Lock(FrontierMutex);
    FreeRunList::Take T = Runs.takeFresh(MaxCount - Got);
    for (size_t I = 0; I < T.Length; ++I)
      Out[Got++] = static_cast<uint32_t>(T.First + I);
  }
  if (Got == MaxCount) {
    // Note: Got == MaxCount, not Got > 0 — a partial frontier fill (the
    // arena's last few fresh segments) must still fall through to the
    // steal and free-run paths below, or refills shrink spuriously while
    // other stripes sit on free segments.
    Outstanding.fetch_add(Got, std::memory_order_relaxed);
    return Got;
  }

  // 3) Memory pressure: steal from the other stripes.
  for (unsigned Probe = 1; Probe < NumStripes && Got < MaxCount; ++Probe) {
    Stripe &Victim = *Lists[(Shard + Probe) % NumStripes];
    std::lock_guard<std::mutex> Lock(Victim.M);
    while (Got < MaxCount && !Victim.Free.empty()) {
      Out[Got++] = Victim.Free.back();
      Victim.Free.pop_back();
      Steals.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // 4) Last resort: free runs released by large objects, split into
  //    singles one run at a time.
  if (Got < MaxCount) {
    std::lock_guard<std::mutex> Lock(FrontierMutex);
    while (Got < MaxCount) {
      FreeRunList::Take T = Runs.takeLowest(MaxCount - Got);
      if (T.Length == 0)
        break;
      for (size_t I = 0; I < T.Length; ++I)
        Out[Got++] = static_cast<uint32_t>(T.First + I);
      if (T.Split)
        RunsSplitCount.fetch_add(1, std::memory_order_relaxed);
    }
  }
  Outstanding.fetch_add(Got, std::memory_order_relaxed);
  return Got;
}

uint32_t SharedSegmentPool::acquireRun(size_t NumSegs) {
  assert(NumSegs > 0 && "must request at least one segment");
  if (faultShouldFail(FaultSite::SegmentAcquire))
    return UINT32_MAX;
  std::lock_guard<std::mutex> Lock(FrontierMutex);
  FreeRunList::Take T = Runs.take(NumSegs);
  if (T.First == FreeRunList::NoRun)
    return UINT32_MAX;
  if (T.Split)
    RunsSplitCount.fetch_add(1, std::memory_order_relaxed);
  Outstanding.fetch_add(NumSegs, std::memory_order_relaxed);
  return static_cast<uint32_t>(T.First);
}

void SharedSegmentPool::releaseSegments(unsigned Shard,
                                        const uint32_t *Indices,
                                        size_t Count) {
  if (Count == 0)
    return;
  Stripe &Own = *Lists[Shard % Lists.size()];
  {
    std::lock_guard<std::mutex> Lock(Own.M);
    Own.Free.insert(Own.Free.end(), Indices, Indices + Count);
  }
  Outstanding.fetch_sub(Count, std::memory_order_relaxed);
}

void SharedSegmentPool::releaseRun(uint32_t First, size_t NumSegs) {
  if (NumSegs == 0)
    return;
  {
    // Coalescing with the adjacent runs keeps repeated large allocations
    // of a growing size from stranding address space.
    std::lock_guard<std::mutex> Lock(FrontierMutex);
    RunsCoalescedCount.fetch_add(Runs.release(First, NumSegs),
                                 std::memory_order_relaxed);
  }
  Outstanding.fetch_sub(NumSegs, std::memory_order_relaxed);
}

uint64_t SharedSegmentPool::frontierSegments() const {
  std::lock_guard<std::mutex> Lock(FrontierMutex);
  return Runs.frontier();
}

SegmentPoolStats SharedSegmentPool::stats() const {
  SegmentPoolStats S;
  S.Outstanding = Outstanding.load(std::memory_order_relaxed);
  S.FrontierSegments = frontierSegments();
  S.StripeMisses = Misses.load(std::memory_order_relaxed);
  S.StripeSteals = Steals.load(std::memory_order_relaxed);
  S.RunsSplit = RunsSplitCount.load(std::memory_order_relaxed);
  S.RunsCoalesced = RunsCoalescedCount.load(std::memory_order_relaxed);
  return S;
}
