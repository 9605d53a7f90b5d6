//===- hardening/HardenedAllocator.cpp - Corruption-detecting wrapper ----===//

#include "hardening/Hardening.h"

#include "support/Error.h"
#include "support/FaultInjection.h"

#include <bit>
#include <cassert>
#include <cstring>

using namespace ddm;

namespace {

uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

constexpr uint64_t LiveSalt = 0xa11c0a11c0ull;
constexpr uint64_t FreedSalt = 0xdeadf4eedull;

/// Byte \p I of the fill that repeats \p Word: byte I mod 8 of the word,
/// least significant first.
uint8_t patternByte(uint64_t Word, size_t I) {
  return static_cast<uint8_t>(Word >> ((I % 8) * 8));
}

// A word stored or loaded in memory order is the fill's next eight bytes.
static_assert(std::endian::native == std::endian::little,
              "the word-wise fill assumes a little-endian host");

uint64_t load64(const uint8_t *Src) {
  uint64_t V;
  std::memcpy(&V, Src, 8);
  return V;
}

void store64(uint8_t *Dst, uint64_t V) { std::memcpy(Dst, &V, 8); }

/// The word whose memory-order bytes are fill bytes [N - 8, N) of \p Word
/// (fill byte I is byte I mod 8 of the word): the last word of a span of
/// N bytes, and of any 8-byte piece that ends where it ends.
uint64_t tailWord(uint64_t Word, size_t N) {
  return std::rotr(Word, static_cast<int>((N % 8) * 8));
}

/// Sixteen fill bytes: two copies of a pattern word, moved with one
/// unaligned vector load or store where the target has them.
using WordPair = uint64_t __attribute__((vector_size(16)));

/// Calls \p Visit(Offset, Expected) for 16-byte pieces that together cover
/// fill bytes [0, \p N) of \p Word, 16 <= N <= 64: whole pieces from
/// offset 0, then the piece that ends at N, which expects the same bytes
/// where it overlaps a whole one. A span costs at most four pieces and two
/// branches on its size class, not a loop whose trip count follows each
/// object's size.
template <typename VisitFn>
void forEachPatternPair(size_t N, uint64_t Word, VisitFn Visit) {
  Visit(0, WordPair{Word, Word});
  if (N > 32)
    Visit(16, WordPair{Word, Word});
  if (N > 48)
    Visit(32, WordPair{Word, Word});
  uint64_t Tail = tailWord(Word, N);
  Visit(N - 16, WordPair{Tail, Tail});
}

/// Writes fill bytes [0, \p N) of \p Word to \p Dst, N <= 64.
inline void fillPattern(uint8_t *Dst, size_t N, uint64_t Word) {
  if (N >= 16) {
    forEachPatternPair(N, Word, [Dst](size_t At, WordPair P) {
      std::memcpy(Dst + At, &P, sizeof(P));
    });
  } else if (N >= 8) {
    store64(Dst, Word);
    store64(Dst + N - 8, tailWord(Word, N));
  } else {
    for (size_t I = 0; I < N; ++I)
      Dst[I] = patternByte(Word, I);
  }
}

/// Whether \p Src's \p N bytes all equal \p Word's fill, N <= 64: the OR
/// of every piece's difference, with no per-byte branch.
inline bool matchesPattern(const uint8_t *Src, size_t N, uint64_t Word) {
  if (N >= 16) {
    WordPair Diff = {0, 0};
    forEachPatternPair(N, Word, [Src, &Diff](size_t At, WordPair P) {
      WordPair Got;
      std::memcpy(&Got, Src + At, sizeof(Got));
      Diff |= Got ^ P;
    });
    return (Diff[0] | Diff[1]) == 0;
  }
  uint64_t Diff = 0;
  if (N >= 8) {
    Diff = (load64(Src) ^ Word) | (load64(Src + N - 8) ^ tailWord(Word, N));
  } else {
    for (size_t I = 0; I < N; ++I)
      Diff |= Src[I] ^ patternByte(Word, I);
  }
  return Diff == 0;
}

/// Offset of the first of \p Src's \p N bytes that differs from \p Word's
/// fill, or \p N if all match. Only called once matchesPattern failed.
size_t firstMismatch(const uint8_t *Src, size_t N, uint64_t Word) {
  for (size_t I = 0; I < N; ++I)
    if (Src[I] != patternByte(Word, I))
      return I;
  return N;
}

std::string hexByte(uint8_t B) {
  char Buf[8];
  std::snprintf(Buf, sizeof(Buf), "0x%02x", B);
  return Buf;
}

} // namespace

const char *ddm::corruptionKindName(CorruptionKind Kind) {
  switch (Kind) {
  case CorruptionKind::RedzoneOverflow:
    return "redzone-overflow";
  case CorruptionKind::UseAfterFree:
    return "use-after-free";
  case CorruptionKind::DoubleFree:
    return "double-free";
  case CorruptionKind::HeaderClobber:
    return "header-clobber";
  }
  return "?";
}

std::string CorruptionReport::describe() const {
  std::string What;
  switch (Kind) {
  case CorruptionKind::RedzoneOverflow:
    What = "redzone overflow past object end";
    break;
  case CorruptionKind::UseAfterFree:
    What = "use-after-free write to a quarantined object";
    break;
  case CorruptionKind::DoubleFree:
    What = "double free";
    break;
  case CorruptionKind::HeaderClobber:
    What = "foreign pointer or clobbered object header";
    break;
  }
  return "heap corruption detected: " + What + ": allocator=" + Allocator +
         " site=" + Site + " offset=" + std::to_string(ByteOffset) +
         " expected=" + hexByte(Expected) + " found=" + hexByte(Found) +
         " size=" + std::to_string(UserSize);
}

HardenedAllocator::HardenedAllocator(std::unique_ptr<TxAllocator> InnerAlloc)
    : Inner(std::move(InnerAlloc)) {
  assert(Inner && "hardened wrapper needs an inner allocator");
}

HardenedAllocator::~HardenedAllocator() = default;

uint64_t HardenedAllocator::magicFor(const ObjHeader *H,
                                     uint64_t StateSalt) const {
  return mix64(reinterpret_cast<uintptr_t>(H) ^ Seed ^
               (H->UserSize * 0x9e3779b97f4a7c15ull) ^ StateSalt);
}

bool HardenedAllocator::inState(const ObjHeader *H, uint64_t StateSalt) const {
  return Inner->owns(H) && H->Magic == magicFor(H, StateSalt);
}

bool HardenedAllocator::stillFreed(const ObjHeader *H) const {
  return H->Magic == magicFor(H, FreedSalt);
}

uint64_t HardenedAllocator::redzoneWord(const void *User) const {
  return mix64(reinterpret_cast<uintptr_t>(User) ^ Seed);
}

uint64_t HardenedAllocator::poisonWord(const void *User) const {
  return mix64(reinterpret_cast<uintptr_t>(User) ^ Seed ^ FreedSalt);
}

size_t HardenedAllocator::poisonSpan(uint64_t UserSize) const {
  return static_cast<size_t>(
      UserSize < PoisonCapBytes ? UserSize : PoisonCapBytes);
}

void HardenedAllocator::raise(CorruptionKind Kind, const char *Site,
                              uint64_t ByteOffset, uint8_t Expected,
                              uint8_t Found, uint64_t UserSize) {
  ++HStats.Reports;
  ++HStats.ReportsByKind[static_cast<unsigned>(Kind)];
  CorruptionReport R;
  R.Kind = Kind;
  R.Allocator = Inner->name();
  R.Site = Site;
  R.ByteOffset = ByteOffset;
  R.Expected = Expected;
  R.Found = Found;
  R.UserSize = UserSize;
  if (Handler)
    Handler(R);
  else
    fatal(R.describe());
}

void HardenedAllocator::writeRedzone(void *User, uint64_t UserSize) {
  fillPattern(static_cast<uint8_t *>(User) + UserSize, RedzoneBytes,
              redzoneWord(User));
}

void HardenedAllocator::reportMismatch(CorruptionKind Kind, const char *Site,
                                       uint8_t *Span, size_t N, uint64_t Word,
                                       uint64_t SpanOffset, uint64_t UserSize) {
  size_t I = firstMismatch(Span, N, Word);
  uint8_t Got = Span[I];
  // Repair before reporting: a later verification of this object (the
  // free after a realloc-time check, the quarantine drain after a
  // free-time check) must not re-report the same scribble.
  fillPattern(Span, N, Word);
  raise(Kind, Site, SpanOffset + I, patternByte(Word, I), Got, UserSize);
}

void HardenedAllocator::verifyRedzone(void *User, const char *Site) {
  ++HStats.RedzoneChecks;
  uint64_t Size = headerOf(User)->UserSize;
  auto *RZ = static_cast<uint8_t *>(User) + Size;
  uint64_t Word = redzoneWord(User);
  if (__builtin_expect(!matchesPattern(RZ, RedzoneBytes, Word), 0))
    reportMismatch(CorruptionKind::RedzoneOverflow, Site, RZ, RedzoneBytes,
                   Word, Size, Size);
}

bool HardenedAllocator::checkFree(void *User, const char *Site,
                                  bool MayScribble) {
  ObjHeader *H = headerOf(User);
  if (!inState(H, LiveSalt)) {
    if (inState(H, FreedSalt))
      raise(CorruptionKind::DoubleFree, Site, 0, 0, 0, H->UserSize);
    else
      raise(CorruptionKind::HeaderClobber, Site, 0, 0, 0, 0);
    return false;
  }
  // Injected overflow: flip one red-zone byte right before verification,
  // proving the verifier catches it (bench_hardening's detection gate).
  if (MayScribble && faultShouldFail(FaultSite::HeapScribbleOverflow)) {
    auto *RZ = static_cast<uint8_t *>(User) + H->UserSize;
    RZ[OverflowRot++ % RedzoneBytes] ^= 0xff;
  }
  verifyRedzone(User, Site);
  return true;
}

void HardenedAllocator::poisonObject(void *User, uint64_t UserSize) {
  fillPattern(static_cast<uint8_t *>(User), poisonSpan(UserSize),
              poisonWord(User));
}

void HardenedAllocator::verifyPoison(void *User, const char *Site) {
  ++HStats.PoisonChecks;
  uint64_t Size = headerOf(User)->UserSize;
  auto *P = static_cast<uint8_t *>(User);
  size_t Span = poisonSpan(Size);
  uint64_t Word = poisonWord(User);
  if (__builtin_expect(!matchesPattern(P, Span, Word), 0))
    reportMismatch(CorruptionKind::UseAfterFree, Site, P, Span, Word, 0,
                   Size);
}

void HardenedAllocator::removeFromLive(ObjHeader *H, void *User,
                                       const char *Site) {
  uint64_t Index = H->LiveIndex;
  if (Index < LiveObjects.size() && LiveObjects[Index] == User) {
    void *Moved = LiveObjects.back();
    LiveObjects[Index] = Moved;
    LiveObjects.pop_back();
    if (Moved != User)
      headerOf(Moved)->LiveIndex = Index;
    return;
  }
  // The magic was intact but the live-index slot disagrees: a wild write
  // hit the header's middle word. Report it, then fall back to a scan so
  // the free itself stays safe.
  raise(CorruptionKind::HeaderClobber, Site, 0, 0, 0, H->UserSize);
  for (size_t I = 0; I < LiveObjects.size(); ++I) {
    if (LiveObjects[I] == User) {
      void *Moved = LiveObjects.back();
      LiveObjects[I] = Moved;
      LiveObjects.pop_back();
      if (Moved != User)
        headerOf(Moved)->LiveIndex = I;
      return;
    }
  }
}

void *HardenedAllocator::allocate(size_t Size) {
  void *Raw = Inner->allocate(HeaderBytes + Size + RedzoneBytes);
  if (!Raw)
    return nullptr;
  auto *H = static_cast<ObjHeader *>(Raw);
  H->UserSize = Size;
  H->LiveIndex = LiveObjects.size();
  H->Magic = magicFor(H, LiveSalt);
  void *User = userOf(H);
  LiveObjects.push_back(User);
  writeRedzone(User, Size);
  noteMalloc(Size, Size);
  return User;
}

void HardenedAllocator::deallocate(void *Ptr) {
  if (!Ptr)
    return;
  if (!checkFree(Ptr, "deallocate", /*MayScribble=*/true))
    return;
  ObjHeader *H = headerOf(Ptr);
  removeFromLive(H, Ptr, "deallocate");
  noteFree(H->UserSize);
  H->Magic = magicFor(H, FreedSalt);
  poisonObject(Ptr, H->UserSize);
  // Injected use-after-free: flip one poison byte before the entry is
  // parked; the recycle/drain verification must find it. (Scribbling
  // before the push keeps the injection off memory the ring might have
  // already handed back to the inner allocator.)
  if (poisonSpan(H->UserSize) > 0 &&
      faultShouldFail(FaultSite::HeapScribbleUaf)) {
    auto *P = static_cast<uint8_t *>(Ptr);
    P[UafRot++ % poisonSpan(H->UserSize)] ^= 0xff;
  }
  pushQuarantine(Ptr, H->UserSize);
  // Injected double free: free the same pointer again; the freed-state
  // header must be recognized. Only while the entry is still parked — a
  // free larger than QuarantineMaxBytes recycles itself at once, and it
  // leaves the ring only after every older entry has.
  if (QuarantineCount > 0 && faultShouldFail(FaultSite::HeapDoubleFree))
    deallocate(Ptr);
}

void HardenedAllocator::pushQuarantine(void *User, uint64_t UserSize) {
  uint32_t Tail = QuarantineHead + QuarantineCount;
  Quarantine[Tail < Quarantine.size() ? Tail : Tail - Quarantine.size()] =
      User;
  ++QuarantineCount;
  HStats.QuarantinedBytes += UserSize;
  while (QuarantineCount > 0 &&
         (QuarantineCount > QuarantineSlots ||
          HStats.QuarantinedBytes > QuarantineMaxBytes))
    recycleOldest();
}

void *HardenedAllocator::popQuarantine() {
  void *User = Quarantine[QuarantineHead];
  if (++QuarantineHead == Quarantine.size())
    QuarantineHead = 0;
  --QuarantineCount;
  return User;
}

void HardenedAllocator::recycleOldest() {
  void *User = popQuarantine();
  ObjHeader *H = headerOf(User);
  if (!stillFreed(H)) {
    // A quarantined entry must still look freed; anything else means its
    // header was scribbled while parked.
    raise(CorruptionKind::HeaderClobber, "quarantine_recycle", 0, 0, 0, 0);
    return; // Header size is untrustworthy; leak rather than corrupt.
  }
  HStats.QuarantinedBytes -= H->UserSize;
  verifyPoison(User, "quarantine_recycle");
  ++HStats.QuarantineRecycles;
  Inner->deallocate(H);
}

void HardenedAllocator::drainQuarantine() {
  while (QuarantineCount > 0)
    recycleOldest();
}

void *HardenedAllocator::reallocate(void *Ptr, size_t OldSize,
                                    size_t NewSize) {
  ++Stats.ReallocCalls;
  if (!Ptr)
    return allocate(NewSize);
  (void)OldSize; // The header, not the caller, knows the true size.
  if (!checkFree(Ptr, "reallocate", /*MayScribble=*/false))
    return nullptr;
  uint64_t Have = headerOf(Ptr)->UserSize;
  void *Fresh = allocate(NewSize);
  if (!Fresh)
    return nullptr; // The old object stays live (realloc contract).
  std::memcpy(Fresh, Ptr, Have < NewSize ? Have : NewSize);
  deallocate(Ptr);
  return Fresh;
}

void HardenedAllocator::freeAll() {
  // Verify every still-live object's canaries before the heap disappears:
  // freeAll is the last chance to attribute an overflow to its object.
  for (void *User : LiveObjects)
    verifyRedzone(User, "free_all");
  LiveObjects.clear();
  // Quarantined entries are re-verified, then dropped — the inner bulk
  // free reclaims their blocks along with everything else.
  while (QuarantineCount > 0) {
    void *User = popQuarantine();
    if (!stillFreed(headerOf(User))) {
      raise(CorruptionKind::HeaderClobber, "free_all", 0, 0, 0, 0);
      continue;
    }
    verifyPoison(User, "free_all");
  }
  HStats.QuarantinedBytes = 0;
  Inner->freeAll();
  noteFreeAll();
}

size_t HardenedAllocator::usableSize(const void *Ptr) const {
  if (!Ptr)
    return 0;
  const ObjHeader *H = headerOf(const_cast<void *>(Ptr));
  return inState(H, LiveSalt) ? static_cast<size_t>(H->UserSize) : 0;
}

std::unique_ptr<TxAllocator>
ddm::hardenAllocator(std::unique_ptr<TxAllocator> Inner,
                     const HardeningConfig &Config) {
  if (!Config.Enabled)
    return Inner;
  return std::make_unique<HardenedAllocator>(std::move(Inner));
}

HardenedAllocator *ddm::asHardened(TxAllocator *A) {
  return dynamic_cast<HardenedAllocator *>(A);
}
