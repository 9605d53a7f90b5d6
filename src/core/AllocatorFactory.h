//===- core/AllocatorFactory.h - Allocator construction by name *- C++ -*-===//
///
/// \file
/// Creates any of the study's allocators from an enum or its stable string
/// name. The experiment harness, benches, and examples all construct
/// allocators through this factory.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_CORE_ALLOCATORFACTORY_H
#define DDM_CORE_ALLOCATORFACTORY_H

#include "core/TxAllocator.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace ddm {

/// Every allocator the study compares.
enum class AllocatorKind {
  DDmalloc,   ///< The paper's defrag-dodging allocator.
  Region,     ///< 256 MB-chunk bump-pointer region allocator.
  Obstack,    ///< GNU-obstack-style small-chunk region allocator.
  Default,    ///< Model of the PHP runtime's default (Zend) allocator.
  Glibc,      ///< Model of glibc malloc (no bulk free).
  TCMalloc,   ///< Model of TCmalloc (no bulk free).
  Hoard,      ///< Model of Hoard (no bulk free).
  Slab,       ///< Buddy+slab page economy (no bulk free).
  Adaptive,   ///< Phase-adaptive placement over region/obstack/slab/default.
};

/// Everything the program knows about one allocator kind: one row of the
/// table in AllocatorFactory.cpp. Adding a kind to the zoo means adding a
/// row there plus the allocator's own files.
struct AllocatorTraits {
  AllocatorKind Kind;
  /// Stable name, as accepted by allocatorKindFromName().
  const char *Name;
  /// Implements freeAll() (region-style bulk reclamation).
  bool BulkFree = false;
  /// Draws its heap spans from AllocatorOptions::Backend when one is set.
  bool PageBackend = false;
  /// Native sharing model: "private-heap", "sharded-pool" or
  /// "shared-central".
  const char *Sharing;
  /// The private heap reservation createAllocatorChecked probes: its size
  /// and its alignment (null: page aligned).
  size_t AllocatorOptions::*ProbeBytes = nullptr;
  size_t AllocatorOptions::*ProbeAlign = nullptr;
  /// Hot allocator code, in bytes, competing with the application's code
  /// for the L1I. A general-purpose allocator's paths (size-class lookup,
  /// bin management, coalescing, splitting) are larger than a bump pointer
  /// — the paper credits DDmalloc's and the region allocator's L1I-miss
  /// reductions to "the smaller size of the allocator code".
  double CodeFootprintBytes;
  /// Builds the bare (unhardened) allocator. Returns null when
  /// Options.Shared was built for another kind.
  std::unique_ptr<TxAllocator> (*Create)(const AllocatorOptions &Options);
  /// Builds the shared heap \p Threads per-thread heaps draw from (each
  /// thread's share is Options.HeapReserveBytes); null with \p Error set
  /// when the reservation fails. Null for private-heap kinds.
  std::shared_ptr<SharedHeap> (*BuildShared)(const AllocatorOptions &Options,
                                             unsigned Threads,
                                             std::string &Error) = nullptr;
};

/// The table row of \p Kind.
const AllocatorTraits &allocatorTraits(AllocatorKind Kind);

/// Probes, without aborting, the private heap reservation \p Kind would
/// make under \p Options (size and alignment from its table row). False
/// with \p Error describing the failure.
bool probeHeapReservation(AllocatorKind Kind, const AllocatorOptions &Options,
                          std::string &Error);

/// Constructs the allocator \p Kind. Aborts via fatal() if the
/// configuration is invalid, Options.Shared belongs to another kind, or
/// the OS refuses the heap reservation;
/// command-line front ends that want a clean diagnostic instead use
/// createAllocatorChecked().
std::unique_ptr<TxAllocator>
createAllocator(AllocatorKind Kind,
                const AllocatorOptions &Options = AllocatorOptions());

/// Like createAllocator, but validates the configuration and probes the
/// heap reservation first: returns nullptr with \p Error describing the
/// problem ("reservation too large", mmap errno, ...) instead of aborting.
std::unique_ptr<TxAllocator>
createAllocatorChecked(AllocatorKind Kind, const AllocatorOptions &Options,
                       std::string &Error);

/// True if \p Kind implements freeAll() (region-style bulk reclamation).
/// The glibc/tcmalloc/hoard models free per object only; calling freeAll
/// on them is a programming error.
bool allocatorSupportsBulkFree(AllocatorKind Kind);

/// Stable name ("ddmalloc", "region", "obstack", "default", "glibc",
/// "tcmalloc", "hoard", "slab", "adaptive").
const char *allocatorKindName(AllocatorKind Kind);

/// Parses a stable name back to the enum; std::nullopt if unknown.
std::optional<AllocatorKind> allocatorKindFromName(const std::string &Name);

/// The stable names of every kind, in paper order — the single source for
/// CLI name lists (loadtest, webserver_sim, bench_chaos, ...).
std::vector<std::string> allocatorNames();

/// allocatorNames() joined with ", ", for --help strings.
std::string allocatorNamesJoined();

/// All kinds, in the order the paper discusses them.
std::vector<AllocatorKind> allAllocatorKinds();

/// The three allocators of the PHP study (Figures 5-9, Tables 3-4).
std::vector<AllocatorKind> phpStudyAllocatorKinds();

/// The four allocators of the Ruby study (Figures 10-12).
std::vector<AllocatorKind> rubyStudyAllocatorKinds();

} // namespace ddm

#endif // DDM_CORE_ALLOCATORFACTORY_H
