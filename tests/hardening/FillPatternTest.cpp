//===- tests/hardening/FillPatternTest.cpp - Red-zone and poison bytes ---===//
///
/// \file
/// The hardened allocator's red-zone and poison fills are part of its
/// observable behaviour: corruption reports quote the expected byte, and
/// a fill that changed would change which scribbles go unseen. These
/// tests compare
/// every byte the allocator writes against an inline copy of the original
/// per-byte formula (byte I of the pattern is byte I mod 8 of one mixed
/// word) for object sizes 1-100, the 64-byte poison cap and the 16-byte
/// red zone, and check that a scribble is reported with the formula's
/// byte and repaired. The allocator fills and checks 8- and 16-byte
/// pieces, so the byte-for-byte cases flip every single red-zone and
/// poison byte of every object size 0-100 (every alignment of the span
/// end), and scribble two bytes at once to pin that the first one is
/// reported.
///
//===----------------------------------------------------------------------===//

#include "core/AllocatorFactory.h"
#include "hardening/Hardening.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

using namespace ddm;

namespace {

uint64_t referenceMix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

uint8_t referenceRedzoneByte(const void *User, uint64_t Seed, uint32_t I) {
  uint64_t Word = referenceMix64(reinterpret_cast<uintptr_t>(User) ^ Seed);
  return static_cast<uint8_t>(Word >> ((I % 8) * 8));
}

uint8_t referencePoisonByte(const void *User, uint64_t Seed, uint32_t I) {
  uint64_t Word =
      referenceMix64(reinterpret_cast<uintptr_t>(User) ^ Seed ^ 0xdeadf4eedull);
  return static_cast<uint8_t>(Word >> ((I % 8) * 8));
}

constexpr uint32_t PoisonCapBytes = HardenedAllocator::PoisonCapBytes;
constexpr uint64_t Seed = HardenedAllocator::Seed;

struct Fixture {
  /// The red-zone width the allocator is expected to write.
  uint32_t RedzoneBytes;
  std::unique_ptr<TxAllocator> Alloc;
  HardenedAllocator *H = nullptr;
  std::vector<CorruptionReport> Reports;

  explicit Fixture(uint32_t RedzoneBytes,
                   AllocatorKind Kind = AllocatorKind::Glibc)
      : RedzoneBytes(RedzoneBytes) {
    AllocatorOptions Options;
    Options.Hardening.Enabled = true;
    Alloc = createAllocator(Kind, Options);
    H = asHardened(Alloc.get());
    H->setReportHandler(
        [this](const CorruptionReport &R) { Reports.push_back(R); });
  }

  void expectRedzone(const uint8_t *P, size_t Size) const {
    for (uint32_t I = 0; I < RedzoneBytes; ++I)
      ASSERT_EQ(P[Size + I], referenceRedzoneByte(P, Seed, I))
          << "size " << Size << " red-zone byte " << I;
  }

  void expectPoison(const uint8_t *P, size_t Size) const {
    size_t Span = Size < PoisonCapBytes ? Size : PoisonCapBytes;
    for (uint32_t I = 0; I < Span; ++I)
      ASSERT_EQ(P[I], referencePoisonByte(P, Seed, I))
          << "size " << Size << " poison byte " << I;
    // Bytes past the cap are left as the application wrote them.
    for (size_t I = Span; I < Size; ++I)
      ASSERT_EQ(P[I], 0x5a) << "size " << Size << " byte " << I;
  }

  /// Flips the red-zone bytes \p At (ascending) of a fresh \p Size-byte
  /// object and frees it: the free must raise one report naming the first
  /// flipped byte with the formula's value, and repair the red zone.
  void scribbleRedzone(size_t Size, std::initializer_list<uint32_t> At) {
    Reports.clear();
    auto *P = static_cast<uint8_t *>(Alloc->allocate(Size));
    ASSERT_NE(P, nullptr);
    uint32_t First = *At.begin();
    uint8_t Want = referenceRedzoneByte(P, Seed, First);
    for (uint32_t I : At)
      P[Size + I] ^= FlipMask;
    Alloc->deallocate(P);
    ASSERT_EQ(Reports.size(), 1u);
    EXPECT_EQ(Reports[0].Kind, CorruptionKind::RedzoneOverflow);
    EXPECT_EQ(Reports[0].Site, "deallocate");
    EXPECT_EQ(Reports[0].ByteOffset, Size + First);
    EXPECT_EQ(Reports[0].Expected, Want);
    EXPECT_EQ(Reports[0].Found, uint8_t(Want ^ FlipMask));
    EXPECT_EQ(Reports[0].UserSize, Size);
    // The object is the newest quarantine entry, so its red zone is still
    // the allocator's to inspect.
    expectRedzone(P, Size);
  }

  /// Frees a fresh \p Size-byte object, flips its poison bytes \p At
  /// (ascending) and drains the quarantine: the recycle must raise one
  /// report naming the first flipped byte with the formula's value, and
  /// repair the poison. Needs an inner allocator whose free leaves the
  /// user bytes alone (region's stamps only the header's first word).
  void scribblePoison(size_t Size, std::initializer_list<uint32_t> At) {
    Reports.clear();
    auto *P = static_cast<uint8_t *>(Alloc->allocate(Size));
    ASSERT_NE(P, nullptr);
    std::fill(P, P + Size, uint8_t(0x5a));
    Alloc->deallocate(P);
    uint32_t First = *At.begin();
    uint8_t Want = referencePoisonByte(P, Seed, First);
    for (uint32_t I : At)
      P[I] ^= FlipMask;
    H->drainQuarantine();
    ASSERT_EQ(Reports.size(), 1u);
    EXPECT_EQ(Reports[0].Kind, CorruptionKind::UseAfterFree);
    EXPECT_EQ(Reports[0].Site, "quarantine_recycle");
    EXPECT_EQ(Reports[0].ByteOffset, First);
    EXPECT_EQ(Reports[0].Expected, Want);
    EXPECT_EQ(Reports[0].Found, uint8_t(Want ^ FlipMask));
    EXPECT_EQ(Reports[0].UserSize, Size);
    expectPoison(P, Size);
  }

  static constexpr uint8_t FlipMask = 0xa5;
};

class FillPatternTest : public testing::TestWithParam<uint32_t> {};

TEST_P(FillPatternTest, RedzoneAndPoisonMatchThePerByteFormula) {
  // Each object is checked right after its free, while it is the newest
  // quarantine entry and so still parked with its poison in place.
  Fixture F(GetParam());
  for (size_t Size = 1; Size <= 100; ++Size) {
    auto *P = static_cast<uint8_t *>(F.Alloc->allocate(Size));
    ASSERT_NE(P, nullptr);
    F.expectRedzone(P, Size);
    std::fill(P, P + Size, uint8_t(0x5a));
    F.Alloc->deallocate(P);
    F.expectPoison(P, Size);
    // Freeing poisons the object, not its red zone.
    F.expectRedzone(P, Size);
  }
  F.H->drainQuarantine();
  EXPECT_TRUE(F.Reports.empty());
  EXPECT_EQ(F.H->hardeningStats().PoisonChecks, 100u);
}

TEST_P(FillPatternTest,
       RedzoneScribbleIsReportedWithThePatternByteAndRepaired) {
  Fixture F(GetParam());
  const uint32_t Last = F.RedzoneBytes - 1;
  for (size_t Size : {1u, 7u, 8u, 13u, 64u, 100u}) {
    for (uint32_t At : {0u, 5u, 8u, Last}) {
      SCOPED_TRACE("size " + std::to_string(Size) + " byte " +
                   std::to_string(At));
      F.Reports.clear();
      auto *P = static_cast<uint8_t *>(F.Alloc->allocate(Size));
      ASSERT_NE(P, nullptr);
      uint8_t Want = referenceRedzoneByte(P, Seed, At);
      P[Size + At] ^= 0xff;
      if (At != Last)
        P[Size + Last] ^= 0x0f;
      // The realloc-time check reports the first bad byte and repairs the
      // rest, so the free inside realloc finds nothing more.
      void *Fresh = F.Alloc->reallocate(P, Size, Size + 1);
      ASSERT_NE(Fresh, nullptr);
      ASSERT_EQ(F.Reports.size(), 1u);
      EXPECT_EQ(F.Reports[0].Kind, CorruptionKind::RedzoneOverflow);
      EXPECT_EQ(F.Reports[0].Site, "reallocate");
      EXPECT_EQ(F.Reports[0].ByteOffset, Size + At);
      EXPECT_EQ(F.Reports[0].Expected, Want);
      EXPECT_EQ(F.Reports[0].Found, uint8_t(Want ^ 0xff));
      EXPECT_EQ(F.Reports[0].UserSize, Size);
      F.expectRedzone(P, Size);
      F.Alloc->deallocate(Fresh);
      EXPECT_EQ(F.Reports.size(), 1u);
    }
  }
}

TEST_P(FillPatternTest, PoisonScribbleIsReportedWithThePatternByte) {
  Fixture F(GetParam());
  for (size_t Size : {1u, 9u, 64u, 100u}) {
    const uint32_t Last = static_cast<uint32_t>((Size < 64 ? Size : 64) - 1);
    for (uint32_t At : {0u, Last / 2, Last}) {
      SCOPED_TRACE("size " + std::to_string(Size) + " byte " +
                   std::to_string(At));
      F.Reports.clear();
      auto *P = static_cast<uint8_t *>(F.Alloc->allocate(Size));
      ASSERT_NE(P, nullptr);
      F.Alloc->deallocate(P);
      uint8_t Want = referencePoisonByte(P, Seed, At);
      P[At] ^= 0x81;
      // Only the first bad byte is reported.
      if (At != Last)
        P[Last] ^= 0x0f;
      F.H->drainQuarantine();
      ASSERT_EQ(F.Reports.size(), 1u);
      EXPECT_EQ(F.Reports[0].Kind, CorruptionKind::UseAfterFree);
      EXPECT_EQ(F.Reports[0].Site, "quarantine_recycle");
      EXPECT_EQ(F.Reports[0].ByteOffset, At);
      EXPECT_EQ(F.Reports[0].Expected, Want);
      EXPECT_EQ(F.Reports[0].Found, uint8_t(Want ^ 0x81));
      EXPECT_EQ(F.Reports[0].UserSize, Size);
    }
  }
}

TEST_P(FillPatternTest, EveryRedzoneByteFlipIsReportedAndRepaired) {
  Fixture F(GetParam());
  for (size_t Size = 0; Size <= 100; ++Size)
    for (uint32_t At = 0; At < F.RedzoneBytes; ++At) {
      SCOPED_TRACE("size " + std::to_string(Size) + " byte " +
                   std::to_string(At));
      F.scribbleRedzone(Size, {At});
    }
  EXPECT_EQ(F.H->hardeningStats().Reports, 101u * F.RedzoneBytes);
}

TEST_P(FillPatternTest, EveryPoisonByteFlipIsReportedAndRepaired) {
  Fixture F(GetParam(), AllocatorKind::Region);
  for (size_t Size = 1; Size <= 100; ++Size) {
    const size_t Span = std::min<size_t>(Size, PoisonCapBytes);
    for (uint32_t At = 0; At < Span; ++At) {
      SCOPED_TRACE("size " + std::to_string(Size) + " byte " +
                   std::to_string(At));
      F.scribblePoison(Size, {At});
    }
    F.Alloc->freeAll();
  }
}

TEST_P(FillPatternTest, TwoByteScribbleReportsTheFirstByte) {
  // Every pair of bytes: in one piece, in neighbouring pieces, and in the
  // overlapping tail piece of a span whose end is not piece-aligned.
  Fixture Redzone(GetParam());
  for (size_t Size = 0; Size <= 100; ++Size)
    for (uint32_t A = 0; A < Redzone.RedzoneBytes; ++A)
      for (uint32_t B = A + 1; B < Redzone.RedzoneBytes; ++B) {
        SCOPED_TRACE("red zone size " + std::to_string(Size) + " bytes " +
                     std::to_string(A) + "," + std::to_string(B));
        Redzone.scribbleRedzone(Size, {A, B});
      }

  Fixture Poison(GetParam(), AllocatorKind::Region);
  for (size_t Size = 2; Size <= 100; ++Size) {
    const size_t Span = std::min<size_t>(Size, PoisonCapBytes);
    for (uint32_t A = 0; A < Span; ++A)
      for (uint32_t B = A + 1; B < Span; ++B) {
        SCOPED_TRACE("poison size " + std::to_string(Size) + " bytes " +
                     std::to_string(A) + "," + std::to_string(B));
        Poison.scribblePoison(Size, {A, B});
      }
    Poison.Alloc->freeAll();
  }
}

INSTANTIATE_TEST_SUITE_P(Redzones, FillPatternTest,
                         testing::Values(HardenedAllocator::RedzoneBytes),
                         [](const testing::TestParamInfo<uint32_t> &Info) {
                           return "Redzone" + std::to_string(Info.param);
                         });

} // namespace
