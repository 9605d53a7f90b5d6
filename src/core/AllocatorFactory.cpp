//===- core/AllocatorFactory.cpp - Allocator construction by name --------===//

#include "core/AllocatorFactory.h"
#include "core/AdaptiveAllocator.h"
#include "core/DDmalloc.h"
#include "core/GlibcModelAllocator.h"
#include "core/HoardModel.h"
#include "core/ObstackAllocator.h"
#include "core/RegionAllocator.h"
#include "core/SegmentPool.h"
#include "core/TCMallocModel.h"
#include "core/ZendDefaultAllocator.h"
#include "hardening/Hardening.h"
#include "page/SlabAllocator.h"
#include "support/Arena.h"
#include "support/Error.h"

#include <iterator>

using namespace ddm;

namespace {

/// The one reservation probe: reserves and immediately releases an arena
/// of \p Bytes, so a fatal reservation of the same size afterwards
/// succeeds whenever the probe did.
bool probeReservation(size_t Bytes, size_t Align, std::string &Error) {
  std::string MapError;
  if (AlignedArena::tryReserve(Bytes, Align, &MapError))
    return true;
  Error = "heap reservation of " + std::to_string(Bytes) +
          " bytes is too large for this system (" + MapError + ")";
  return false;
}

/// Downcasts Options.Shared into \p Out; false if the handle was built
/// for another kind.
template <typename Central>
bool sharedAs(const AllocatorOptions &Options, std::shared_ptr<Central> &Out) {
  Out = std::dynamic_pointer_cast<Central>(Options.Shared);
  return Out || !Options.Shared;
}

/// Builds a mutex-guarded central over Threads * HeapReserveBytes.
template <typename Central, std::shared_ptr<Central> (*Make)(size_t)>
std::shared_ptr<SharedHeap> buildCentral(const AllocatorOptions &Options,
                                         unsigned Threads, std::string &Error) {
  size_t Bytes = Options.HeapReserveBytes * Threads;
  return probeReservation(Bytes, 4096, Error) ? Make(Bytes) : nullptr;
}

/// The common constructor: the heap size, the page backend where the
/// kind takes one, and the shared central where it has one. A shared
/// handle is foreign to every kind without a central.
template <typename Allocator, typename Config>
std::unique_ptr<TxAllocator> construct(const AllocatorOptions &Options) {
  Config C;
  C.HeapReserveBytes = Options.HeapReserveBytes;
  if constexpr (requires { C.Backend; })
    C.Backend = Options.Backend;
  if constexpr (requires { C.Central; }) {
    if (!sharedAs(Options, C.Central))
      return nullptr;
  } else if (Options.Shared) {
    return nullptr;
  }
  return std::make_unique<Allocator>(C);
}

std::unique_ptr<TxAllocator> createDDmalloc(const AllocatorOptions &Options) {
  DDmallocConfig C;
  if (!sharedAs(Options, C.Pool))
    return nullptr;
  C.SegmentSize = Options.SegmentSize;
  C.HeapReserveBytes = Options.HeapReserveBytes;
  C.ProcessId = Options.ProcessId;
  C.MetadataColoring = Options.MetadataColoring;
  C.LargePages = Options.LargePages;
  C.ShardId = Options.ShardId;
  return std::make_unique<DDmallocAllocator>(C);
}

std::shared_ptr<SharedHeap> buildSegmentPool(const AllocatorOptions &Options,
                                             unsigned Threads,
                                             std::string &Error) {
  SharedSegmentPool::Config C;
  C.SegmentSize = Options.SegmentSize;
  C.ReserveBytes = Options.HeapReserveBytes * Threads;
  C.Stripes = Threads;
  return SharedSegmentPool::tryCreate(C, &Error);
}

std::unique_ptr<TxAllocator> createRegion(const AllocatorOptions &Options) {
  if (Options.Shared)
    return nullptr;
  RegionConfig C;
  C.ChunkBytes = Options.RegionChunkBytes;
  C.Backend = Options.Backend;
  return std::make_unique<RegionAllocator>(C);
}

std::unique_ptr<TxAllocator> createAdaptive(const AllocatorOptions &Options) {
  if (Options.Shared)
    return nullptr;
  AdaptiveConfig C;
  C.InnerOptions = Options;
  // The adaptive dispatcher is hardened once at the top by
  // createAllocator; its inner strategies stay bare (nesting would
  // double every canary and quarantine).
  C.InnerOptions.Hardening = HardeningConfig();
  return std::make_unique<AdaptiveAllocator>(C);
}

constexpr size_t AllocatorOptions::*HeapBytes =
    &AllocatorOptions::HeapReserveBytes;
constexpr const char *PrivateHeap = "private-heap";
constexpr const char *SharedCentral = "shared-central";

/// One row per kind, in AllocatorKind order. Unnamed fields are
/// false/null: no page backend, page-aligned probe, no shared heap.
const AllocatorTraits Table[] = {
    {.Kind = AllocatorKind::DDmalloc, .Name = "ddmalloc", .BulkFree = true,
     .Sharing = "sharded-pool", .ProbeBytes = HeapBytes,
     .ProbeAlign = &AllocatorOptions::SegmentSize,
     .CodeFootprintBytes = 2.0 * 1024, .Create = createDDmalloc,
     .BuildShared = buildSegmentPool},
    {.Kind = AllocatorKind::Region, .Name = "region", .BulkFree = true,
     .PageBackend = true, .Sharing = PrivateHeap,
     .ProbeBytes = &AllocatorOptions::RegionChunkBytes,
     .CodeFootprintBytes = 0.5 * 1024, .Create = createRegion},
    {.Kind = AllocatorKind::Obstack, .Name = "obstack", .BulkFree = true,
     .PageBackend = true, .Sharing = PrivateHeap, .ProbeBytes = HeapBytes,
     .CodeFootprintBytes = 1.0 * 1024,
     .Create = construct<ObstackAllocator, ObstackConfig>},
    {.Kind = AllocatorKind::Default, .Name = "default", .BulkFree = true,
     .PageBackend = true, .Sharing = PrivateHeap, .ProbeBytes = HeapBytes,
     .CodeFootprintBytes = 8.0 * 1024,
     .Create = construct<ZendDefaultAllocator, ZendConfig>},
    {.Kind = AllocatorKind::Glibc, .Name = "glibc", .PageBackend = true,
     .Sharing = PrivateHeap, .ProbeBytes = HeapBytes,
     .CodeFootprintBytes = 8.0 * 1024,
     .Create = construct<GlibcModelAllocator, GlibcConfig>},
    {.Kind = AllocatorKind::TCMalloc, .Name = "tcmalloc",
     .Sharing = SharedCentral, .ProbeBytes = HeapBytes,
     .CodeFootprintBytes = 6.0 * 1024,
     .Create = construct<TCMallocModelAllocator, TCMallocConfig>,
     .BuildShared = buildCentral<TCMallocCentral, createTCMallocCentral>},
    {.Kind = AllocatorKind::Hoard, .Name = "hoard", .Sharing = SharedCentral,
     .ProbeBytes = HeapBytes, .CodeFootprintBytes = 5.0 * 1024,
     .Create = construct<HoardModelAllocator, HoardConfig>,
     .BuildShared = buildCentral<HoardCentral, createHoardCentral>},
    // Slab: the magazine fast path is tiny; the slab/buddy machinery is
    // cold.
    {.Kind = AllocatorKind::Slab, .Name = "slab", .PageBackend = true,
     .Sharing = SharedCentral, .ProbeBytes = HeapBytes,
     .CodeFootprintBytes = 3.0 * 1024,
     .Create = construct<SlabAllocator, SlabConfig>,
     .BuildShared = buildCentral<SlabCentral, createSlabCentral>},
    // Adaptive: a thin dispatch layer plus whichever strategy is resident;
    // only one inner allocator's hot path is live at a time.
    {.Kind = AllocatorKind::Adaptive, .Name = "adaptive", .BulkFree = true,
     .PageBackend = true, .Sharing = PrivateHeap, .ProbeBytes = HeapBytes,
     .CodeFootprintBytes = 2.5 * 1024, .Create = createAdaptive},
};

/// The bare allocator with the hardening wrap on top; null (with
/// \p Error set) when Options.Shared belongs to another kind.
std::unique_ptr<TxAllocator> create(const AllocatorTraits &T,
                                    const AllocatorOptions &Options,
                                    std::string &Error) {
  std::unique_ptr<TxAllocator> A = T.Create(Options);
  if (!A) {
    Error = std::string("the shared heap handle was not built for ") + T.Name;
    return nullptr;
  }
  return hardenAllocator(std::move(A), Options.Hardening);
}

} // namespace

const AllocatorTraits &ddm::allocatorTraits(AllocatorKind Kind) {
  size_t Index = static_cast<size_t>(Kind);
  if (Index >= std::size(Table) || Table[Index].Kind != Kind)
    unreachable("traits table out of AllocatorKind order");
  return Table[Index];
}

bool ddm::probeHeapReservation(AllocatorKind Kind,
                               const AllocatorOptions &Options,
                               std::string &Error) {
  const AllocatorTraits &T = allocatorTraits(Kind);
  return probeReservation(Options.*T.ProbeBytes,
                          T.ProbeAlign ? Options.*T.ProbeAlign : 4096, Error);
}

std::unique_ptr<TxAllocator>
ddm::createAllocator(AllocatorKind Kind, const AllocatorOptions &Options) {
  std::string Error;
  std::unique_ptr<TxAllocator> A = create(allocatorTraits(Kind), Options, Error);
  if (!A)
    fatal("createAllocator: " + Error);
  return A;
}

std::unique_ptr<TxAllocator>
ddm::createAllocatorChecked(AllocatorKind Kind, const AllocatorOptions &Options,
                            std::string &Error) {
  const AllocatorTraits &T = allocatorTraits(Kind);
  // Validate what the constructors would otherwise abort on.
  if (Kind == AllocatorKind::DDmalloc) {
    auto *Pool = dynamic_cast<SharedSegmentPool *>(Options.Shared.get());
    if (Options.SegmentSize < 4096 ||
        (Options.SegmentSize & (Options.SegmentSize - 1)) != 0) {
      Error = "ddmalloc segment size must be a power of two >= 4096";
      return nullptr;
    }
    if (Pool && Pool->segmentSize() != Options.SegmentSize) {
      Error = "ddmalloc segment size does not match the shared pool's";
      return nullptr;
    }
    if (!Options.Shared && Options.HeapReserveBytes < 4 * Options.SegmentSize) {
      Error = "ddmalloc heap reservation too small: need at least 4 segments";
      return nullptr;
    }
  }

  // A shared heap already carries the reservation; nothing to probe. A
  // page backend does too, but its spans can still run out: probe with a
  // trial acquire instead of an arena reservation.
  if (Options.Shared)
    return create(T, Options, Error);
  if (T.PageBackend && Options.Backend) {
    size_t ProbeBytes = Options.*T.ProbeBytes;
    std::byte *Probe = Options.Backend->acquire(ProbeBytes, 4096);
    if (!Probe) {
      Error = "page backend cannot supply a span of " +
              std::to_string(ProbeBytes) + " bytes";
      return nullptr;
    }
    Options.Backend->release(Probe, ProbeBytes);
    return create(T, Options, Error);
  }
  if (!probeHeapReservation(Kind, Options, Error))
    return nullptr;
  return create(T, Options, Error);
}

bool ddm::allocatorSupportsBulkFree(AllocatorKind Kind) {
  return allocatorTraits(Kind).BulkFree;
}

const char *ddm::allocatorKindName(AllocatorKind Kind) {
  return allocatorTraits(Kind).Name;
}

std::optional<AllocatorKind>
ddm::allocatorKindFromName(const std::string &Name) {
  for (AllocatorKind Kind : allAllocatorKinds())
    if (Name == allocatorKindName(Kind))
      return Kind;
  return std::nullopt;
}

std::vector<std::string> ddm::allocatorNames() {
  std::vector<std::string> Names;
  for (AllocatorKind Kind : allAllocatorKinds())
    Names.push_back(allocatorKindName(Kind));
  return Names;
}

std::string ddm::allocatorNamesJoined() {
  std::string Joined;
  for (const std::string &Name : allocatorNames()) {
    if (!Joined.empty())
      Joined += ", ";
    Joined += Name;
  }
  return Joined;
}

std::vector<AllocatorKind> ddm::allAllocatorKinds() {
  std::vector<AllocatorKind> Kinds;
  for (const AllocatorTraits &T : Table)
    Kinds.push_back(T.Kind);
  return Kinds;
}

std::vector<AllocatorKind> ddm::phpStudyAllocatorKinds() {
  return {AllocatorKind::Default, AllocatorKind::Region,
          AllocatorKind::DDmalloc};
}

std::vector<AllocatorKind> ddm::rubyStudyAllocatorKinds() {
  return {AllocatorKind::Glibc, AllocatorKind::Hoard, AllocatorKind::TCMalloc,
          AllocatorKind::DDmalloc};
}
