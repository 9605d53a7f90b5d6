//===- hardening/Hardening.h - Corruption-detecting allocator --*- C++ -*-===//
///
/// \file
/// The heap-hardening layer: a TxAllocator wrapper that detects heap
/// corruption the way production allocators do (scudo's header checksums
/// and quarantine) and reports it precisely instead of letting a scribble
/// propagate. Three cooperating mechanisms:
///
///  1. every object carries a checksummed header and a 16-byte rear
///     red-zone canary whose pattern derives from (pointer, seed); both
///     are verified on free/realloc/freeAll, so buffer overflows, double
///     frees, and foreign pointers are caught at the free boundary;
///  2. freed objects are poison-filled and parked in a bounded quarantine
///     ring that delays reuse; the poison is re-verified when the entry is
///     recycled (or the heap is bulk-freed), catching use-after-free
///     writes;
///  3. the free path consults the corruption-injecting fault sites
///     (heap_scribble_overflow / heap_scribble_uaf / heap_double_free) so
///     chaos tests can verify detection coverage deterministically.
///
/// Detection produces a structured CorruptionReport. Without a handler the
/// report is fatal (the standalone misuse contract); with one installed —
/// the TransactionRuntime does — the operation completes safely and the
/// report flows into the OOM-style containment machinery
/// (TxStatus::HeapCorruption; DESIGN.md section 14).
///
//===----------------------------------------------------------------------===//

#ifndef DDM_HARDENING_HARDENING_H
#define DDM_HARDENING_HARDENING_H

#include "core/TxAllocator.h"
#include "hardening/HardeningConfig.h"

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace ddm {

/// What kind of damage a detection found.
enum class CorruptionKind : uint8_t {
  RedzoneOverflow, ///< Rear red-zone byte mismatch: overflow past the end.
  UseAfterFree,    ///< Poison byte mismatch: write to a quarantined object.
  DoubleFree,      ///< Free/realloc of an object already freed.
  HeaderClobber,   ///< Header magic mismatch: foreign pointer or wild write.
};

constexpr unsigned NumCorruptionKinds = 4;

/// Human-readable kind ("redzone-overflow", ...).
const char *corruptionKindName(CorruptionKind Kind);

/// The structured report of one detection: enough to say which allocator,
/// which operation, and which byte went bad.
struct CorruptionReport {
  CorruptionKind Kind = CorruptionKind::RedzoneOverflow;
  /// Inner allocator's stable name ("region", "ddmalloc", ...).
  std::string Allocator;
  /// Operation that performed the verification: "deallocate",
  /// "reallocate", "free_all", "quarantine_recycle".
  std::string Site;
  /// Offset of the first mismatching byte from the user pointer (red-zone
  /// offsets are >= UserSize). 0 for header/double-free findings.
  uint64_t ByteOffset = 0;
  uint8_t Expected = 0; ///< Pattern byte that should have been there.
  uint8_t Found = 0;    ///< Byte actually read.
  uint64_t UserSize = 0;

  /// One-line diagnostic, e.g.
  /// "heap corruption detected: redzone overflow: allocator=region
  ///  site=deallocate offset=131 expected=0x5a found=0x00 size=128".
  std::string describe() const;
};

/// Counters of the hardening layer itself (distinct from AllocatorStats).
struct HardeningStats {
  uint64_t RedzoneChecks = 0;       ///< Red-zone verifications performed.
  uint64_t PoisonChecks = 0;        ///< Quarantine poison verifications.
  uint64_t QuarantineRecycles = 0;  ///< Entries released back to the heap.
  uint64_t QuarantinedBytes = 0;    ///< User bytes currently quarantined.
  uint64_t Reports = 0;             ///< Total corruption reports raised.
  std::array<uint64_t, NumCorruptionKinds> ReportsByKind{};
};

/// The corruption-detecting wrapper. Owns the inner allocator; forwards
/// name()/capabilities/sink so drivers and figure tables see the wrapped
/// allocator unchanged. Its AllocatorStats count *user* bytes only:
/// header/red-zone overhead and quarantined (freed-but-delayed) bytes are
/// excluded from UsableBytesLive, so the OOM rollback invariant
/// (live == 0 after an abort) and the fig09 memory columns stay truthful
/// under --harden.
class HardenedAllocator final : public TxAllocator {
public:
  using ReportHandler = std::function<void(const CorruptionReport &)>;

  /// Rear red-zone bytes appended to every object; the pattern is derived
  /// from (pointer, Seed) and verified on free/realloc/freeAll.
  static constexpr uint32_t RedzoneBytes = 16;
  /// Bound on delayed frees in the poison-on-free quarantine ring.
  static constexpr uint32_t QuarantineSlots = 64;
  /// Bound on the total user bytes the quarantine may hold; the oldest
  /// entries are recycled (poison re-verified, then released) to stay
  /// under it.
  static constexpr uint64_t QuarantineMaxBytes = 1ull * 1024 * 1024;
  /// At most this many leading user bytes are poisoned on free and
  /// re-verified at recycle time, so large objects stay cheap.
  static constexpr uint32_t PoisonCapBytes = 64;
  /// Seed of the canary/poison patterns. Mixed with each object's address
  /// so a fixed scribble value cannot forge a valid pattern.
  static constexpr uint64_t Seed = 0x6a7d;

  explicit HardenedAllocator(std::unique_ptr<TxAllocator> InnerAllocator);
  ~HardenedAllocator() override;

  /// Installs the corruption-report consumer. Without one (the default)
  /// any detection is fatal — the standalone misuse contract. With one,
  /// the report is delivered and the operation completes safely so a
  /// runtime can abort just the transaction.
  void setReportHandler(ReportHandler Handler) {
    this->Handler = std::move(Handler);
  }

  /// Releases every quarantined entry back to the inner allocator,
  /// re-verifying poison first. Benches call this at end of run so
  /// use-after-free scribbles parked in a never-full ring still count.
  void drainQuarantine();

  const HardeningStats &hardeningStats() const { return HStats; }
  TxAllocator &inner() { return *Inner; }

  // TxAllocator interface.
  void *allocate(size_t Size) override;
  void deallocate(void *Ptr) override;
  void *reallocate(void *Ptr, size_t OldSize, size_t NewSize) override;
  void freeAll() override;
  bool supportsPerObjectFree() const override {
    return Inner->supportsPerObjectFree();
  }
  bool supportsBulkFree() const override { return Inner->supportsBulkFree(); }
  size_t usableSize(const void *Ptr) const override;
  bool owns(const void *Ptr) const override { return Inner->owns(Ptr); }
  /// The inner allocator's name: under --harden every table/JSON keeps the
  /// same allocator keys as the unhardened run.
  const char *name() const override { return Inner->name(); }
  uint64_t memoryConsumption() const override {
    return Inner->memoryConsumption();
  }
  void attachSink(AccessSink *S) override { Inner->attachSink(S); }

private:
  /// Per-object header placed in front of the user bytes. 24 bytes keeps
  /// the user pointer 8-byte aligned on top of the inner allocator's
  /// >= 8-byte alignment guarantee.
  struct ObjHeader {
    uint64_t UserSize;
    /// Index into LiveObjects while live (swap-removed on free).
    uint64_t LiveIndex;
    /// State checksum over (address, seed, size, state salt): a live
    /// object, a freed object, and everything else are distinguishable
    /// without any side table.
    uint64_t Magic;
  };
  static constexpr size_t HeaderBytes = sizeof(ObjHeader);

  static ObjHeader *headerOf(void *Ptr) {
    return reinterpret_cast<ObjHeader *>(static_cast<std::byte *>(Ptr) -
                                         HeaderBytes);
  }
  static void *userOf(ObjHeader *H) { return H + 1; }

  // The helpers of the allocate and free paths are declared inline so that
  // each path compiles to one body. HardenedAllocator.cpp, the only file
  // that calls them, defines them.
  inline uint64_t magicFor(const ObjHeader *H, uint64_t StateSalt) const;
  /// Whether \p H is the inner allocator's memory and holds the magic of
  /// the state \p StateSalt names: one mix per test. Ownership is asked
  /// first: a foreign pointer's "header" may not be readable at all.
  inline bool inState(const ObjHeader *H, uint64_t StateSalt) const;
  /// Whether a quarantine entry's header still holds the freed magic. No
  /// ownership test: the entry passed one when it was freed, and the inner
  /// heap keeps its block until the entry is recycled or swept.
  inline bool stillFreed(const ObjHeader *H) const;
  /// The words whose repeated bytes fill an object's red zone (from user
  /// offset UserSize on) and its poison span (from offset 0): byte I of
  /// the fill is byte I mod 8 of the word. One mix per object, not per
  /// byte. Fills store the word in 8- and 16-byte pieces and checks OR the
  /// pieces' differences; only a failed check looks at single bytes.
  inline uint64_t redzoneWord(const void *User) const;
  inline uint64_t poisonWord(const void *User) const;
  inline size_t poisonSpan(uint64_t UserSize) const;

  inline void writeRedzone(void *User, uint64_t UserSize);
  /// Verifies the rear red-zone; on mismatch raises one report and then
  /// repairs the pattern so a later verification of the same object does
  /// not double-report a single scribble.
  inline void verifyRedzone(void *User, const char *Site);
  /// The slow path of a failed red-zone or poison check: finds the first
  /// of \p Span's \p N bytes that differs from \p Word's fill, repairs
  /// the span, and raises \p Kind for that byte (its user offset is
  /// \p SpanOffset plus its index).
  void reportMismatch(CorruptionKind Kind, const char *Site, uint8_t *Span,
                      size_t N, uint64_t Word, uint64_t SpanOffset,
                      uint64_t UserSize);
  /// The check at free (deallocate, and reallocate's check of the old
  /// object), one pass over the header and then the red zone: unless the
  /// header holds the live magic, raises DoubleFree (it holds the freed
  /// magic) or HeaderClobber and returns false; otherwise verifies the red
  /// zone. The freed magic is only computed when the live one missed.
  /// \p MayScribble lets the overflow fault site flip a red-zone byte
  /// first.
  inline bool checkFree(void *User, const char *Site, bool MayScribble);
  inline void poisonObject(void *User, uint64_t UserSize);
  inline void verifyPoison(void *User, const char *Site);

  inline void removeFromLive(ObjHeader *H, void *User, const char *Site);
  /// Parks \p User as the newest entry, then recycles the oldest entries
  /// until the ring holds at most QuarantineSlots entries and
  /// QuarantineMaxBytes bytes.
  inline void pushQuarantine(void *User, uint64_t UserSize);
  /// Takes the oldest entry off the ring.
  inline void *popQuarantine();
  /// Pops the oldest entry; if its header still holds the freed magic,
  /// verifies its poison and releases it to the inner allocator.
  inline void recycleOldest();
  void raise(CorruptionKind Kind, const char *Site, uint64_t ByteOffset,
             uint8_t Expected, uint8_t Found, uint64_t UserSize);

  std::unique_ptr<TxAllocator> Inner;
  ReportHandler Handler;
  HardeningStats HStats;

  /// User pointers of live objects, insertion-ordered with swap-remove:
  /// O(1) maintenance, deterministic iteration for the freeAll sweep (no
  /// address-dependent ordering — double runs must be byte-identical).
  std::vector<void *> LiveObjects;
  /// FIFO of quarantined user pointers (poisoned, inner-free delayed): a
  /// fixed ring, QuarantineCount entries from QuarantineHead on. One slot
  /// more than QuarantineSlots, because a free parks its entry before the
  /// oldest one is recycled.
  std::array<void *, QuarantineSlots + 1> Quarantine{};
  uint32_t QuarantineHead = 0;
  uint32_t QuarantineCount = 0;

  /// Rotors picking which byte the corruption-injecting fault sites
  /// damage; deterministic so double runs scribble identically.
  uint32_t OverflowRot = 0;
  uint32_t UafRot = 0;
};

/// Wraps \p Inner in a HardenedAllocator when \p Config is enabled;
/// returns \p Inner unchanged otherwise. The factory calls this for every
/// allocator when AllocatorOptions::Hardening.Enabled is set.
std::unique_ptr<TxAllocator>
hardenAllocator(std::unique_ptr<TxAllocator> Inner,
                const HardeningConfig &Config);

/// The hardened view of \p A, or nullptr if \p A is not hardened. Used by
/// runtimes to install the report handler after (re)creating a heap.
HardenedAllocator *asHardened(TxAllocator *A);

} // namespace ddm

#endif // DDM_HARDENING_HARDENING_H
