//===- core/SegmentPool.h - Sharded segment pool for DDmalloc --*- C++ -*-===//
///
/// \file
/// SharedSegmentPool backs the native multi-threaded DDmalloc: one shared,
/// segment-aligned arena whose segments are handed out through per-shard
/// striped free lists. Each worker thread's DDmallocAllocator refills its
/// private segment cache from its own stripe in batches, so the malloc/free
/// fast paths stay exactly as in the single-threaded allocator (no atomics,
/// no locks) and a stripe mutex is taken only on segment refill/release —
/// roughly once per dozens of transactions.
///
/// Acquisition order on refill: the shard's own stripe, then the shared
/// bump frontier, then stealing from other stripes (only under memory
/// pressure, when the frontier is exhausted). Multi-segment runs for large
/// objects come from the frontier or a free-run list kept alongside it.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_CORE_SEGMENTPOOL_H
#define DDM_CORE_SEGMENTPOOL_H

#include "core/TxAllocator.h"
#include "support/Arena.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ddm {

/// Counters of the pool's refill traffic, for tests and benches. A steal
/// is a segment taken from another shard's stripe under memory pressure;
/// run splits/coalesces happen on the multi-segment free-run list.
struct SegmentPoolStats {
  uint64_t Outstanding = 0;      ///< Acquired minus released.
  uint64_t FrontierSegments = 0; ///< Ever taken from the bump frontier.
  uint64_t StripeMisses = 0;     ///< Refills that fell past the own stripe.
  uint64_t StripeSteals = 0;     ///< Segments taken from other stripes.
  uint64_t RunsSplit = 0;        ///< Free runs split to satisfy a request.
  uint64_t RunsCoalesced = 0;    ///< Adjacent-run merges on releaseRun.
};

/// A shared arena of fixed-size segments with striped (per-shard) free
/// lists. All methods are thread-safe; the intended pattern is one stripe
/// per worker thread, addressed by the worker's shard id.
class SharedSegmentPool : public SharedHeap {
public:
  struct Config {
    /// Segment size in bytes; a power of two >= 4096 (DDmalloc's rules).
    size_t SegmentSize = 32 * 1024;
    /// Total address space of the shared arena (committed lazily).
    size_t ReserveBytes = 1ull * 1024 * 1024 * 1024;
    /// Number of free-list stripes; typically the worker thread count.
    unsigned Stripes = 8;
  };

  /// Reserves the arena. Aborts via fatal() on failure; tryCreate() is the
  /// non-fatal variant.
  explicit SharedSegmentPool(const Config &C);

  /// Non-fatal creation: nullptr with \p ErrorOut set when the reservation
  /// fails (or the `arena_map` fault site fires).
  static std::shared_ptr<SharedSegmentPool> tryCreate(const Config &C,
                                                      std::string *ErrorOut);

  SharedSegmentPool(const SharedSegmentPool &) = delete;
  SharedSegmentPool &operator=(const SharedSegmentPool &) = delete;

  std::byte *base() const { return Arena.base(); }
  size_t size() const { return Arena.size(); }
  size_t segmentSize() const { return Cfg.SegmentSize; }
  size_t numSegments() const { return NumSegments; }
  unsigned stripes() const { return static_cast<unsigned>(Lists.size()); }
  std::byte *segmentAt(uint32_t Index) const {
    return Arena.base() + static_cast<size_t>(Index) * Cfg.SegmentSize;
  }

  /// Acquires up to \p MaxCount segments for \p Shard, writing their
  /// indices to \p Out. Returns how many were acquired; 0 means the pool
  /// is exhausted or the `segment_acquire` fault site fired.
  size_t acquireSegments(unsigned Shard, uint32_t *Out, size_t MaxCount);

  /// Acquires \p NumSegs contiguous segments (for one multi-segment large
  /// object). Returns the first index, or UINT32_MAX on exhaustion/fault.
  uint32_t acquireRun(size_t NumSegs);

  /// Returns \p Count single segments to \p Shard's stripe.
  void releaseSegments(unsigned Shard, const uint32_t *Indices, size_t Count);

  /// Returns a contiguous run previously obtained from acquireRun().
  void releaseRun(uint32_t First, size_t NumSegs);

  /// \name Introspection for tests and benches.
  /// @{
  /// Segments currently held by shards (acquired minus released).
  uint64_t segmentsOutstanding() const {
    return Outstanding.load(std::memory_order_relaxed);
  }
  /// Segments ever taken from the bump frontier.
  uint64_t frontierSegments() const;
  /// Refill calls that had to fall past the caller's own stripe.
  uint64_t stripeMisses() const {
    return Misses.load(std::memory_order_relaxed);
  }
  /// Every counter in one consistent-enough snapshot (relaxed loads).
  SegmentPoolStats stats() const;
  /// @}

private:
  /// One per-shard free list; padded so stripe locks do not false-share.
  struct alignas(64) Stripe {
    std::mutex M;
    std::vector<uint32_t> Free;
  };

  Config Cfg;
  AlignedArena Arena;
  size_t NumSegments = 0;

  std::vector<std::unique_ptr<Stripe>> Lists;

  /// Guards the bump frontier and the free-run map.
  mutable std::mutex FrontierMutex;
  size_t Frontier = 0;
  /// Free multi-segment runs (first index -> length), refilled by
  /// releaseRun; first-fit with splitting, like the page-heap models.
  std::map<uint32_t, size_t> FreeRuns;

  std::atomic<uint64_t> Outstanding{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> Steals{0};
  std::atomic<uint64_t> RunsSplitCount{0};
  std::atomic<uint64_t> RunsCoalescedCount{0};
};

} // namespace ddm

#endif // DDM_CORE_SEGMENTPOOL_H
