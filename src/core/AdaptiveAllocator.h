//===- core/AdaptiveAllocator.h - Phase-adaptive placement -----*- C++ -*-===//
///
/// \file
/// The zoo's ninth member: a delegating allocator that watches its own
/// allocation stream and, at safe points (no objects live), switches the
/// strategy underneath — region for transaction-scoped phases, obstack
/// when frees are strictly LIFO, slab when a churny phase concentrates on
/// one size class, and the Zend-style default otherwise. This is the
/// policy half of the DAMON-style sampling story: the monitor observes
/// where the heat is, the adaptive allocator acts on the stream shape,
/// and together they trade strategy-switch cost against each phase
/// running on the allocator that suits it.
///
/// The placement decision is a pure function of windowed stream
/// statistics (choosePlacement), so the policy is unit-testable without
/// constructing a single heap. Switches carry hysteresis: two consecutive
/// windows must agree on a recommendation that differs from the current
/// strategy before the inner allocator is rebuilt.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_CORE_ADAPTIVEALLOCATOR_H
#define DDM_CORE_ADAPTIVEALLOCATOR_H

#include "core/AllocatorFactory.h"
#include "core/TxAllocator.h"

#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ddm {

/// Windowed statistics of the malloc/free stream, the whole input of the
/// placement policy.
struct StreamWindowStats {
  uint64_t Mallocs = 0;
  uint64_t Frees = 0;
  uint64_t Reallocs = 0;
  uint64_t BytesRequested = 0;
  /// Frees that popped the most recently allocated live object (the top
  /// of the allocation stack) — nested, stack-shaped deallocation.
  uint64_t LifoFrees = 0;
  /// Allocations in the most popular power-of-two size class.
  uint64_t DominantClassMallocs = 0;

  double freeRatio() const {
    return Mallocs ? static_cast<double>(Frees) / static_cast<double>(Mallocs)
                   : 0.0;
  }
  double lifoRatio() const {
    return Frees ? static_cast<double>(LifoFrees) / static_cast<double>(Frees)
                 : 0.0;
  }
  double dominantClassRatio() const {
    return Mallocs ? static_cast<double>(DominantClassMallocs) /
                         static_cast<double>(Mallocs)
                   : 0.0;
  }
};

/// The placement policy: which strategy suits a window that looked like
/// \p W. Pure; thresholds follow the paper's taxonomy — phases that free
/// almost nothing are transaction-scoped (bulk reclamation wins), phases
/// that free everything need per-object reuse (slab if the objects are
/// small or the sizes concentrate, the general-purpose default
/// otherwise), and strictly LIFO frees are the obstack discipline.
AllocatorKind choosePlacement(const StreamWindowStats &W);

/// TxAllocator that delegates to a rebuildable inner allocator chosen by
/// choosePlacement(). Capabilities: bulk free always (delegated when the
/// inner supports it, swept through the live-object table otherwise);
/// per-object free follows the current inner.
class AdaptiveAllocator final : public TxAllocator {
public:
  /// Windows shorter than this many mallocs carry over instead of being
  /// scored (protects against per-transaction noise).
  static constexpr uint64_t MinWindowMallocs = 64;

  /// Every inner strategy is built from \p Options, minus the hardening
  /// wrap: the factory hardens the adaptive dispatcher once at the top
  /// (nesting would double every canary and quarantine).
  explicit AdaptiveAllocator(
      const AllocatorOptions &Options = AllocatorOptions());
  ~AdaptiveAllocator() override;

  void *allocate(size_t Size) override;
  void deallocate(void *Ptr) override;
  void *reallocate(void *Ptr, size_t OldSize, size_t NewSize) override;
  void freeAll() override;
  bool supportsPerObjectFree() const override;
  bool supportsBulkFree() const override { return true; }
  size_t usableSize(const void *Ptr) const override;
  /// The current inner allocator's range check.
  bool owns(const void *Ptr) const override { return Inner->owns(Ptr); }
  const char *name() const override { return "adaptive"; }
  uint64_t memoryConsumption() const override;
  void attachSink(AccessSink *S) override;

  /// The strategy currently underneath.
  AllocatorKind currentStrategy() const { return CurrentKind; }
  /// Strategy switches performed so far.
  uint64_t strategySwitches() const { return Switches; }
  /// The stream window accumulated since the last scored one.
  const StreamWindowStats &pendingWindow() const { return Window; }

private:
  struct ObjectInfo {
    size_t Requested;
    size_t Usable;
    /// Monotonic allocation order; freeAll sweeps by it so the sweep
    /// order (and everything mirrored into the sink) never depends on
    /// where the OS happened to place the heap.
    uint64_t Seq;
  };

  void rebuildInner(AllocatorKind Kind);
  /// Scores the pending window and switches strategy if two consecutive
  /// windows agree; only legal with no objects live.
  void maybeSwitch();
  /// Drops stack entries whose object is no longer live (freed or
  /// reallocated mid-stack) from the top.
  void popStaleStackTops();
  /// True when the stack entry still names a live object.
  bool isLiveEntry(const std::pair<const void *, uint64_t> &Entry) const;

  AllocatorOptions InnerOptions;
  AllocatorKind CurrentKind;
  std::unique_ptr<TxAllocator> Inner;
  AccessSink *RawSink = nullptr;

  std::unordered_map<const void *, ObjectInfo> Live;
  /// Live allocations in allocation order, (pointer, seq). A free that
  /// matches the top is a LIFO free; mid-stack frees leave a stale entry
  /// that is popped lazily (and compacted when stale entries dominate).
  std::vector<std::pair<const void *, uint64_t>> AllocStack;
  uint64_t NextSeq = 0;

  StreamWindowStats Window;
  uint64_t ClassMallocs[16] = {}; ///< Per power-of-two-class counts.
  AllocatorKind LastRecommendation;
  bool HaveRecommendation = false;
  uint64_t Switches = 0;
};

} // namespace ddm

#endif // DDM_CORE_ADAPTIVEALLOCATOR_H
