//===- support/Arena.cpp - Aligned address-space reservations ------------===//

#include "support/Arena.h"
#include "support/Error.h"
#include "support/FaultInjection.h"

#include <cassert>
#include <cerrno>
#include <cstring>
#include <string>
#include <sys/mman.h>
#include <unistd.h>
#include <vector>

using namespace ddm;

static size_t pageSize() {
  static const size_t Cached = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return Cached;
}

AlignedArena::AlignedArena(size_t RequestedSize, size_t Alignment) {
  std::string Error;
  if (!reserve(RequestedSize, Alignment, Error))
    fatal(Error);
}

std::optional<AlignedArena> AlignedArena::tryReserve(size_t Size,
                                                     size_t Alignment,
                                                     std::string *ErrorOut) {
  std::string Error;
  if (faultShouldFail(FaultSite::ArenaMap)) {
    if (ErrorOut)
      *ErrorOut = "mmap of " + std::to_string(Size) +
                  " bytes failed: injected arena_map fault";
    return std::nullopt;
  }
  AlignedArena Arena;
  if (!Arena.reserve(Size, Alignment, Error)) {
    if (ErrorOut)
      *ErrorOut = std::move(Error);
    return std::nullopt;
  }
  return std::optional<AlignedArena>(std::move(Arena));
}

bool AlignedArena::reserve(size_t RequestedSize, size_t Alignment,
                           std::string &Error) {
  assert(RequestedSize > 0 && "arena must be nonempty");
  assert((Alignment & (Alignment - 1)) == 0 && "alignment must be power of 2");
  size_t Page = pageSize();
  if (Alignment < Page)
    Alignment = Page;
  // Round the usable size up to whole pages.
  Size = (RequestedSize + Page - 1) & ~(Page - 1);

  // Over-allocate so that an aligned sub-range is guaranteed, then trim.
  MapSize = Size + Alignment;
  void *Raw = mmap(nullptr, MapSize, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (Raw == MAP_FAILED) {
    Error = "mmap of " + std::to_string(MapSize) +
            " bytes failed: " + std::strerror(errno);
    Size = MapSize = 0;
    return false;
  }
  MapBase = static_cast<std::byte *>(Raw);

  uintptr_t RawAddr = reinterpret_cast<uintptr_t>(Raw);
  uintptr_t Aligned = (RawAddr + Alignment - 1) & ~(Alignment - 1);
  Base = reinterpret_cast<std::byte *>(Aligned);

  // Trim the unaligned head and the unused tail so the kernel can reuse
  // the address space.
  size_t Head = Aligned - RawAddr;
  if (Head > 0) {
    munmap(MapBase, Head);
    MapBase += Head;
    MapSize -= Head;
  }
  size_t Tail = MapSize - Size;
  if (Tail > 0) {
    munmap(Base + Size, Tail);
    MapSize -= Tail;
  }
  return true;
}

AlignedArena::~AlignedArena() {
  if (MapBase)
    munmap(MapBase, MapSize);
}

AlignedArena::AlignedArena(AlignedArena &&Other) noexcept
    : Base(Other.Base), Size(Other.Size), MapBase(Other.MapBase),
      MapSize(Other.MapSize) {
  Other.Base = Other.MapBase = nullptr;
  Other.Size = Other.MapSize = 0;
}

AlignedArena &AlignedArena::operator=(AlignedArena &&Other) noexcept {
  if (this == &Other)
    return *this;
  if (MapBase)
    munmap(MapBase, MapSize);
  Base = Other.Base;
  Size = Other.Size;
  MapBase = Other.MapBase;
  MapSize = Other.MapSize;
  Other.Base = Other.MapBase = nullptr;
  Other.Size = Other.MapSize = 0;
  return *this;
}

size_t AlignedArena::residentBytes() const {
  if (!Base)
    return 0;
  size_t Page = pageSize();
  size_t Pages = Size / Page;
  std::vector<unsigned char> Map(Pages);
  if (mincore(Base, Size, Map.data()) != 0)
    return 0;
  size_t Resident = 0;
  for (unsigned char Flags : Map)
    if (Flags & 1)
      ++Resident;
  return Resident * Page;
}
