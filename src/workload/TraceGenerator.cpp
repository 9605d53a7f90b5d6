//===- workload/TraceGenerator.cpp - Transaction trace synthesis ----------===//

#include "workload/TraceGenerator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

using namespace ddm;

TxExecutor::~TxExecutor() = default;

namespace {

/// Ids are handed out densely (NextId++) within a transaction, one per
/// step, so every per-object table below is a flat array indexed by id.
constexpr uint32_t NoId = ~0u;

/// Ring-buffer calendar of pending per-object frees, bucketed by step.
/// Each bucket is a FIFO list threaded through a per-id link array (an id
/// is scheduled at most once), so scheduling never allocates.
class FreeCalendar {
public:
  /// \p Window steps of look-ahead (a power of two), ids below \p MaxIds.
  FreeCalendar(size_t Window, size_t MaxIds)
      : Head(Window, NoId), Tail(Window, NoId), Link(MaxIds, NoId),
        Mask(Window - 1) {
    assert(Window != 0 && (Window & Mask) == 0 && "window: power of two");
  }

  void schedule(uint64_t Step, uint64_t DeathStep, uint32_t Id) {
    uint64_t Delay = DeathStep - Step;
    if (Delay > Mask)
      Delay = Mask;
    size_t Bucket = (Cursor + Delay) & Mask;
    (Head[Bucket] == NoId ? Head[Bucket] : Link[Tail[Bucket]]) = Id;
    Tail[Bucket] = Id;
  }

  /// Detaches the ids dying at the current step and advances. Returns the
  /// first of them (NoId if none); next() walks the rest in scheduling
  /// order.
  uint32_t popCurrent() {
    uint32_t First = Head[Cursor];
    Head[Cursor] = NoId;
    Cursor = (Cursor + 1) & Mask;
    return First;
  }

  uint32_t next(uint32_t Id) const { return Link[Id]; }

private:
  std::vector<uint32_t> Head; ///< First id of each bucket, or NoId.
  std::vector<uint32_t> Tail; ///< Last id of each non-empty bucket.
  std::vector<uint32_t> Link; ///< Id -> next id of its bucket, or NoId.
  size_t Mask;
  size_t Cursor = 0;
};

/// Live-object table with O(1) insert/remove and recency-biased sampling.
class LiveTable {
public:
  /// A table for ids below \p MaxIds.
  explicit LiveTable(size_t MaxIds) : Position(MaxIds, NoId) {}

  void insert(uint32_t Id, uint32_t Size) {
    assert(Id < Position.size() && "id out of range");
    Position[Id] = static_cast<uint32_t>(Objects.size());
    Objects.push_back({Id, Size});
  }

  bool contains(uint32_t Id) const { return Position[Id] != NoId; }

  uint32_t sizeOf(uint32_t Id) const { return Objects[slotOf(Id)].Size; }

  void resize(uint32_t Id, uint32_t NewSize) {
    Objects[slotOf(Id)].Size = NewSize;
  }

  void remove(uint32_t Id) {
    uint32_t Pos = slotOf(Id);
    Position[Id] = NoId;
    if (Pos + 1 != Objects.size()) {
      Objects[Pos] = Objects.back();
      Position[Objects[Pos].Id] = Pos;
    }
    Objects.pop_back();
  }

  bool empty() const { return Objects.empty(); }
  size_t size() const { return Objects.size(); }

  /// Picks a live object, biased toward recent insertions (temporal
  /// locality of interpreter data).
  uint32_t sampleRecent(Rng &R) const {
    assert(!Objects.empty());
    uint64_t Back = R.nextGeometric(0.08); // mean ~11.5 objects back
    if (Back >= Objects.size())
      Back = R.nextBelow(Objects.size());
    return Objects[Objects.size() - 1 - Back].Id;
  }

private:
  uint32_t slotOf(uint32_t Id) const {
    assert(contains(Id) && "id is not live");
    return Position[Id];
  }

  struct Entry {
    uint32_t Id;
    uint32_t Size;
  };
  std::vector<Entry> Objects;
  std::vector<uint32_t> Position; ///< Id -> index into Objects, or NoId.
};

} // namespace

uint64_t ddm::transactionSteps(const WorkloadSpec &Spec, double Scale) {
  assert(Scale > 0.0 && "scale must be positive");
  return std::max<uint64_t>(
      1, static_cast<uint64_t>(std::llround(Spec.MallocCalls * Scale)));
}

TraceStats ddm::runTransaction(const WorkloadSpec &Spec, double Scale, Rng &R,
                               TxExecutor &Executor) {
  uint64_t Steps = transactionSteps(Spec, Scale);

  double FreeFraction = Spec.perObjectFreeFraction();
  double ReallocRate =
      Spec.MallocCalls
          ? static_cast<double>(Spec.ReallocCalls) / Spec.MallocCalls
          : 0.0;
  double LifetimeP = 1.0 / (1.0 + Spec.MeanLifetimeSteps);
  double LifetimeLog1mP = std::log1p(-LifetimeP);

  // Size model: a point-mass mixture over the interpreter's favourite
  // sizes plus a log-normal tail, with the tail's mean solved so the
  // overall mean (including the rare large objects) hits Table 3.
  static const uint32_t PointSizes[] = {16, 32, 48, 64, 96, 160, 256};
  static const double PointCdf[] = {0.22, 0.50, 0.68, 0.82, 0.90, 0.96, 1.00};
  constexpr double PointMean = 16 * 0.22 + 32 * 0.28 + 48 * 0.18 + 64 * 0.14 +
                               96 * 0.08 + 160 * 0.06 + 256 * 0.04;
  double LargeMean =
      (Spec.LargeMinBytes + Spec.LargeMaxBytes) / 2.0 * Spec.LargeObjectRate;
  double PointFraction = Spec.PointMassFraction;
  double TailMeanTarget =
      (Spec.MeanAllocBytes - LargeMean - PointFraction * PointMean) /
      std::max(1e-9, 1.0 - PointFraction - Spec.LargeObjectRate);
  if (TailMeanTarget < 8.0) {
    // The point masses alone overshoot the target mean: shrink their share.
    PointFraction = std::max(
        0.0, (Spec.MeanAllocBytes - LargeMean - 8.0) / (PointMean - 8.0));
    TailMeanTarget = 8.0;
  }
  double Mu =
      std::log(TailMeanTarget) - Spec.SizeSigma * Spec.SizeSigma / 2.0;

  TraceStats Stats;
  FreeCalendar Calendar(4096, Steps);
  LiveTable Live(Steps);
  uint32_t NextId = 0;
  double TouchAccumulator = 0.0;
  double StateAccumulator = 0.0;
  uint64_t WorkChunk =
      static_cast<uint64_t>(std::llround(Spec.WorkInstrPerMalloc));

  for (uint64_t Step = 0; Step < Steps; ++Step) {
    // 1. Application compute.
    Executor.onWork(WorkChunk);
    Stats.WorkInstructions += WorkChunk;

    // 2. Background working-set touches (hot subset vs. cold sweep).
    StateAccumulator += Spec.StateTouchesPerStep;
    while (StateAccumulator >= 1.0) {
      StateAccumulator -= 1.0;
      uint64_t Range = R.nextBool(Spec.StateHotFraction)
                           ? std::min(Spec.StateHotBytes, Spec.AppStateBytes)
                           : Spec.AppStateBytes;
      uint64_t Offset = R.nextBelow(Range) & ~uint64_t(63);
      Executor.onStateTouch(Offset, R.nextBool(0.2));
      ++Stats.StateTouches;
    }

    // 3. Revisit recently allocated objects.
    TouchAccumulator += Spec.ObjectTouchesPerStep;
    while (TouchAccumulator >= 1.0) {
      TouchAccumulator -= 1.0;
      if (Live.empty())
        continue;
      Executor.onTouch(Live.sampleRecent(R), R.nextBool(0.3));
      ++Stats.ObjectTouches;
    }

    // 4. Per-object frees due this step.
    for (uint32_t Id = Calendar.popCurrent(); Id != NoId;
         Id = Calendar.next(Id)) {
      if (!Live.contains(Id))
        continue; // already gone (shrunk away by realloc bookkeeping)
      Live.remove(Id);
      Executor.onFree(Id);
      ++Stats.Frees;
    }

    // 5. Occasional realloc of a live object.
    if (!Live.empty() && R.nextBool(ReallocRate)) {
      uint32_t Id = Live.sampleRecent(R);
      uint32_t OldSize = Live.sizeOf(Id);
      // Buffers typically grow by 1.5x-2.5x; cap runaway growth chains.
      uint64_t Grown = OldSize + OldSize / 2 + R.nextBelow(OldSize + 1);
      auto NewSize = static_cast<uint32_t>(
          std::min<uint64_t>(std::max<uint64_t>(8, Grown), 64 * 1024));
      Live.resize(Id, NewSize);
      Executor.onRealloc(Id, OldSize, NewSize);
      ++Stats.Reallocs;
    }

    // 6. The allocation itself.
    size_t Size;
    if (R.nextBool(Spec.LargeObjectRate)) {
      Size = R.nextInRange(Spec.LargeMinBytes, Spec.LargeMaxBytes);
    } else if (R.nextBool(PointFraction)) {
      double U = R.nextDouble();
      unsigned Bucket = 0;
      while (U > PointCdf[Bucket])
        ++Bucket;
      Size = PointSizes[Bucket];
    } else {
      double Draw = R.nextLogNormal(Mu, Spec.SizeSigma);
      Size = static_cast<size_t>(std::max(1.0, std::min(Draw, 16000.0)));
    }
    uint32_t Id = NextId++;
    Live.insert(Id, static_cast<uint32_t>(Size));
    Executor.onAlloc(Id, Size);
    ++Stats.Mallocs;
    Stats.AllocatedBytes += Size;

    if (R.nextBool(FreeFraction)) {
      uint64_t Death = Step + 1 + R.nextGeometric(LifetimeP, LifetimeLog1mP);
      Calendar.schedule(Step, Death, Id);
    }
  }

  // Unfreed objects stay live; the runtime reclaims them with freeAll (or
  // never, in the Ruby study). Tell the executor nothing: the allocator's
  // freeAll handles them wholesale.
  return Stats;
}
