//===- tests/hardening/FillPatternTest.cpp - Red-zone and poison bytes ---===//
///
/// \file
/// The hardened allocator's red-zone and poison fills are part of its
/// observable behaviour: corruption reports quote the expected byte, and
/// a fill that changed would change which scribbles go unseen. These
/// tests compare
/// every byte the allocator writes against an inline copy of the original
/// per-byte formula (byte I of the pattern is byte I mod 8 of one mixed
/// word) for object sizes 1-100, a 64-byte poison cap, and red zones of
/// 16 and 13 bytes (the latter not a multiple of the 8-byte word), and
/// check that a scribble is reported with the formula's byte and repaired.
///
//===----------------------------------------------------------------------===//

#include "core/AllocatorFactory.h"
#include "hardening/Hardening.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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

struct Fixture {
  HardeningConfig Config;
  std::unique_ptr<TxAllocator> Alloc;
  HardenedAllocator *H = nullptr;
  std::vector<CorruptionReport> Reports;

  explicit Fixture(uint32_t RedzoneBytes) {
    AllocatorOptions Options;
    Options.Hardening.Enabled = true;
    Options.Hardening.RedzoneBytes = RedzoneBytes;
    Options.Hardening.PoisonCapBytes = 64;
    // Every freed object stays parked, so its poison can be read back.
    Options.Hardening.QuarantineSlots = 1024;
    Options.Hardening.QuarantineMaxBytes = 1ull << 30;
    Config = Options.Hardening;
    Alloc = createAllocator(AllocatorKind::Glibc, Options);
    H = asHardened(Alloc.get());
    H->setReportHandler(
        [this](const CorruptionReport &R) { Reports.push_back(R); });
  }

  void expectRedzone(const uint8_t *P, size_t Size) const {
    for (uint32_t I = 0; I < Config.RedzoneBytes; ++I)
      ASSERT_EQ(P[Size + I], referenceRedzoneByte(P, Config.Seed, I))
          << "size " << Size << " red-zone byte " << I;
  }

  void expectPoison(const uint8_t *P, size_t Size) const {
    size_t Span = Size < Config.PoisonCapBytes ? Size : Config.PoisonCapBytes;
    for (uint32_t I = 0; I < Span; ++I)
      ASSERT_EQ(P[I], referencePoisonByte(P, Config.Seed, I))
          << "size " << Size << " poison byte " << I;
    // Bytes past the cap are left as the application wrote them.
    for (size_t I = Span; I < Size; ++I)
      ASSERT_EQ(P[I], 0x5a) << "size " << Size << " byte " << I;
  }
};

class FillPatternTest : public testing::TestWithParam<uint32_t> {};

TEST_P(FillPatternTest, RedzoneAndPoisonMatchThePerByteFormula) {
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
  const uint32_t Last = F.Config.RedzoneBytes - 1;
  for (size_t Size : {1u, 7u, 8u, 13u, 64u, 100u}) {
    for (uint32_t At : {0u, 5u, 8u, Last}) {
      SCOPED_TRACE("size " + std::to_string(Size) + " byte " +
                   std::to_string(At));
      F.Reports.clear();
      auto *P = static_cast<uint8_t *>(F.Alloc->allocate(Size));
      ASSERT_NE(P, nullptr);
      uint8_t Want = referenceRedzoneByte(P, F.Config.Seed, At);
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
      uint8_t Want = referencePoisonByte(P, F.Config.Seed, At);
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

INSTANTIATE_TEST_SUITE_P(Redzones, FillPatternTest, testing::Values(16u, 13u),
                         [](const testing::TestParamInfo<uint32_t> &Info) {
                           return "Redzone" + std::to_string(Info.param);
                         });

} // namespace
