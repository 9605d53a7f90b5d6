//===- support/Arena.h - Aligned address-space reservations ----*- C++ -*-===//
///
/// \file
/// AlignedArena reserves a large range of anonymous memory whose base
/// address is aligned to a caller-chosen power of two. The allocators build
/// their heaps inside arenas: DDmalloc needs segment-size alignment so that
/// an object's segment is computable with a mask, and the region allocator
/// needs cheap multi-hundred-megabyte reservations that only commit pages
/// on first touch.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_SUPPORT_ARENA_H
#define DDM_SUPPORT_ARENA_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace ddm {

/// An aligned, lazily-committed reservation of anonymous memory.
class AlignedArena {
public:
  /// Reserves \p Size bytes aligned to \p Alignment (a power of two >= the
  /// page size). Aborts via fatal() if the OS refuses the mapping; callers
  /// that can degrade gracefully use tryReserve() instead.
  AlignedArena(size_t Size, size_t Alignment);
  ~AlignedArena();

  /// Non-fatal reservation: returns the arena, or std::nullopt with
  /// \p ErrorOut (if non-null) describing the mmap failure including
  /// errno. Also honors the `arena_map` fault-injection site, so chaos
  /// runs can exercise reservation-failure paths deterministically.
  static std::optional<AlignedArena>
  tryReserve(size_t Size, size_t Alignment, std::string *ErrorOut = nullptr);

  AlignedArena(const AlignedArena &) = delete;
  AlignedArena &operator=(const AlignedArena &) = delete;
  AlignedArena(AlignedArena &&Other) noexcept;
  AlignedArena &operator=(AlignedArena &&Other) noexcept;

  std::byte *base() const { return Base; }
  size_t size() const { return Size; }

  /// True if \p Ptr points into this arena.
  bool contains(const void *Ptr) const {
    auto P = reinterpret_cast<uintptr_t>(Ptr);
    auto B = reinterpret_cast<uintptr_t>(Base);
    return P >= B && P < B + Size;
  }

  /// Bytes of the arena currently backed by physical pages, measured by the
  /// kernel (via mincore); used by the memory-consumption experiments.
  size_t residentBytes() const;

private:
  AlignedArena() = default; ///< Empty shell for tryReserve to fill.
  bool reserve(size_t RequestedSize, size_t Alignment, std::string &Error);

  std::byte *Base = nullptr;
  size_t Size = 0;
  std::byte *MapBase = nullptr;
  size_t MapSize = 0;
};

} // namespace ddm

#endif // DDM_SUPPORT_ARENA_H
