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

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>

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

/// A fixed-length array of \p T on its own AlignedArena, for bookkeeping
/// sized by a large span of which little is used at once. Every element
/// reads as zero until written, and only the pages holding written
/// elements become resident: the OS backs the rest on first touch.
template <typename T> class ReservedArray {
  static_assert(std::is_trivially_copyable_v<T>,
                "elements live in raw zero-filled pages");

public:
  explicit ReservedArray(size_t Count)
      : Arena(std::max<size_t>(Count, 1) * sizeof(T), alignof(T)) {}

  T &operator[](size_t I) { return reinterpret_cast<T *>(Arena.base())[I]; }
  const T &operator[](size_t I) const {
    return reinterpret_cast<const T *>(Arena.base())[I];
  }

  /// Bytes of the array currently backed by physical pages.
  size_t residentBytes() const { return Arena.residentBytes(); }

private:
  AlignedArena Arena;
};

} // namespace ddm

#endif // DDM_SUPPORT_ARENA_H
