//===- core/PageMap.h - One mark byte per heap page ------------*- C++ -*-===//
///
/// \file
/// The page map the page-granular heaps share: TCmalloc's page map, Hoard's
/// superblock map and the slab allocator's page kinds. Each page of the
/// heap carries one byte: the owner's own mark (a size class, a slab's
/// non-head page) or one of the three run marks below, which is how free()
/// finds a large object's extent without a header. Every store into the map
/// is mirrored into the owner's sink as a 1-byte store.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_CORE_PAGEMAP_H
#define DDM_CORE_PAGEMAP_H

#include "core/AccessSink.h"
#include "support/Error.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ddm {

class PageMap {
public:
  static constexpr uint8_t Unused = 0xFF;
  static constexpr uint8_t LargeStart = 0xFE; ///< First page of a large run.
  static constexpr uint8_t LargeCont = 0xFD;  ///< Any later page of one.

  /// Maps the heap of \p Pages pages of \p PageBytes (a power of two)
  /// each that starts at \p Base.
  PageMap(std::byte *Base, size_t PageBytes, size_t Pages)
      : Base(Base), Shift(__builtin_ctzll(PageBytes)), Marks(Pages, Unused) {}

  /// The page \p Ptr, a pointer into the heap, lies in.
  size_t pageOf(const void *Ptr) const {
    return (reinterpret_cast<uintptr_t>(Ptr) -
            reinterpret_cast<uintptr_t>(Base)) >>
           Shift;
  }
  std::byte *pageBase(size_t Page) const { return Base + (Page << Shift); }

  uint8_t operator[](size_t Page) const { return Marks[Page]; }
  const uint8_t *data() const { return Marks.data(); }
  size_t size() const { return Marks.size(); }

  /// Marks \p Pages pages from \p First: \p Head on the first page, \p Rest
  /// on the others.
  void mark(size_t First, size_t Pages, uint8_t Head, uint8_t Rest,
            const SinkHandle &Sink) {
    for (size_t I = 0; I < Pages; ++I) {
      Marks[First + I] = I == 0 ? Head : Rest;
      Sink.store(&Marks[First + I], 1);
    }
  }
  void markLarge(size_t First, size_t Pages, const SinkHandle &Sink) {
    mark(First, Pages, LargeStart, LargeCont, Sink);
  }
  void clear(size_t First, size_t Pages, const SinkHandle &Sink) {
    mark(First, Pages, Unused, Unused, Sink);
  }

  /// The free-time read of \p Page's mark, mirrored as a 1-byte load.
  /// Fatal (in every build type) when no object starts on the page: a
  /// second free of a large object, or a pointer into unused pages, would
  /// otherwise corrupt the owner's lists silently. \p Heap names the owner
  /// in the diagnostic.
  uint8_t markForFree(size_t Page, const SinkHandle &Sink,
                      const char *Heap) const {
    uint8_t Mark = Marks[Page];
    Sink.load(&Marks[Page], 1);
    if (Mark == Unused || Mark == LargeCont)
      fatal(std::string(Heap) +
            ": bad free (double free of a large object or pointer into "
            "unallocated pages)");
    return Mark;
  }

  /// Pages in the large run that starts at \p First. The scan reads the
  /// entry one past the run, which a sibling thread may be writing, so on
  /// a shared central the caller holds the central lock.
  size_t largeRunPages(size_t First) const {
    return runLength(Marks.data(), Marks.size(), First, LargeCont);
  }

  /// The boundary scan: 1 + the number of entries after \p First in the
  /// \p Size marks at \p Map that read \p Cont. DDmalloc's segment map,
  /// which keeps its own marks inside the heap, scans with it too.
  static size_t runLength(const uint8_t *Map, size_t Size, size_t First,
                          uint8_t Cont) {
    size_t Length = 1;
    while (First + Length < Size && Map[First + Length] == Cont)
      ++Length;
    return Length;
  }

private:
  std::byte *Base;
  unsigned Shift;
  std::vector<uint8_t> Marks;
};

} // namespace ddm

#endif // DDM_CORE_PAGEMAP_H
