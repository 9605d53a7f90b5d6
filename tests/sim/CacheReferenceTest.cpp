//===- tests/sim/CacheReferenceTest.cpp - Cache vs reference model --------===//
///
/// \file
/// Differential testing of the production Cache against a deliberately
/// naive reference implementation (per-set vectors with explicit LRU
/// ordering), over random and adversarial access streams, parameterized
/// by cache geometry.
///
//===----------------------------------------------------------------------===//

#include "sim/Cache.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

using namespace ddm;

namespace {

/// The obviously-correct model: one vector per set, most recent at the
/// back.
class ReferenceCache {
public:
  ReferenceCache(uint64_t SizeBytes, unsigned Assoc, unsigned LineBytes)
      : Assoc(Assoc), LineShift(__builtin_ctz(LineBytes)) {
    uint64_t Lines = SizeBytes / LineBytes;
    if (Lines < Assoc)
      Lines = Assoc;
    Sets = Lines / Assoc;
    while (Sets & (Sets - 1))
      Sets &= Sets - 1;
    if (Sets == 0)
      Sets = 1;
    Data.resize(Sets);
  }

  struct Line {
    uint64_t Addr;
    bool Dirty;
  };

  /// Returns hit; reports a dirty eviction through \p EvictedDirty.
  bool access(uintptr_t Addr, bool IsWrite, bool &EvictedDirty) {
    EvictedDirty = false;
    LastEvicted.reset();
    uint64_t LineAddr = Addr >> LineShift;
    auto &Set = Data[LineAddr & (Sets - 1)];
    for (size_t I = 0; I < Set.size(); ++I) {
      if (Set[I].Addr == LineAddr) {
        Line L = Set[I];
        L.Dirty |= IsWrite;
        Set.erase(Set.begin() + static_cast<long>(I));
        Set.push_back(L);
        return true;
      }
    }
    if (Set.size() == Assoc) {
      EvictedDirty = Set.front().Dirty;
      LastEvicted = Set.front().Addr;
      Set.erase(Set.begin());
    }
    Set.push_back({LineAddr, IsWrite});
    return false;
  }

  /// Line address the latest access evicted, if it evicted one.
  std::optional<uint64_t> LastEvicted;

private:
  unsigned Assoc;
  unsigned LineShift;
  uint64_t Sets;
  std::vector<std::vector<Line>> Data;
};

class CacheReferenceTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, unsigned>> {
protected:
  uint64_t sizeBytes() const { return std::get<0>(GetParam()); }
  unsigned assoc() const { return std::get<1>(GetParam()); }
};

} // namespace

TEST_P(CacheReferenceTest, RandomStreamAgreesWithReference) {
  Cache Real(CacheGeometry{sizeBytes(), assoc(), 64});
  ReferenceCache Reference(sizeBytes(), assoc(), 64);
  Rng R(42);
  uint64_t DirtyEvictionsReal = 0, DirtyEvictionsRef = 0;
  for (int I = 0; I < 60000; ++I) {
    // Mix of hot (small range) and cold (large range) addresses.
    uintptr_t Addr = R.nextBool(0.7) ? R.nextBelow(4 * sizeBytes())
                                     : R.nextBelow(64 * sizeBytes());
    bool IsWrite = R.nextBool(0.4);
    Cache::Outcome Out = Real.access(Addr, IsWrite);
    bool RefDirty = false;
    bool RefHit = Reference.access(Addr, IsWrite, RefDirty);
    ASSERT_EQ(Out.Hit, RefHit) << "divergence at access " << I;
    if (Out.Evicted && Out.EvictedDirty)
      ++DirtyEvictionsReal;
    if (RefDirty)
      ++DirtyEvictionsRef;
  }
  EXPECT_EQ(DirtyEvictionsReal, DirtyEvictionsRef);
}

TEST_P(CacheReferenceTest, SetConflictStreamAgreesWithReference) {
  Cache Real(CacheGeometry{sizeBytes(), assoc(), 64});
  ReferenceCache Reference(sizeBytes(), assoc(), 64);
  uint64_t SetStride = Real.numSets() * 64;
  Rng R(7);
  // Adversarial: hammer a handful of lines that all map to one set.
  for (int I = 0; I < 20000; ++I) {
    uintptr_t Addr = SetStride * R.nextBelow(assoc() + 2);
    bool IsWrite = R.nextBool(0.5);
    bool RefDirty = false;
    ASSERT_EQ(Real.access(Addr, IsWrite).Hit,
              Reference.access(Addr, IsWrite, RefDirty))
        << "divergence at access " << I;
  }
}

namespace {

/// Accesses before the 32-bit stamp clock would pass its ceiling: the
/// streams below start this close to it, so the renumbering runs a few
/// thousand accesses in, on a warm cache.
constexpr uint32_t AccessesBeforeRenumbering = 3000;

/// Runs \p Next's (address, is-write) stream on a Cache whose clock starts
/// AccessesBeforeRenumbering ticks below its ceiling and on the reference,
/// requiring the same hit, victim and dirty bit on every access.
template <typename StreamFn>
void expectAgreementAcrossRenumbering(uint64_t SizeBytes, unsigned Assoc,
                                      int Accesses, StreamFn Next) {
  Cache Real(CacheGeometry{SizeBytes, Assoc, 64});
  Real.setClockForTesting(Cache::MaxClock - AccessesBeforeRenumbering);
  ReferenceCache Reference(SizeBytes, Assoc, 64);
  for (int I = 0; I < Accesses; ++I) {
    auto [Addr, IsWrite] = Next(Real);
    Cache::Outcome Out = Real.access(Addr, IsWrite);
    bool RefDirty = false;
    bool RefHit = Reference.access(Addr, IsWrite, RefDirty);
    ASSERT_EQ(Out.Hit, RefHit) << "divergence at access " << I;
    ASSERT_EQ(Out.Evicted, Reference.LastEvicted.has_value())
        << "divergence at access " << I;
    if (Out.Evicted) {
      ASSERT_EQ(Out.EvictedLine, *Reference.LastEvicted)
          << "divergence at access " << I;
      ASSERT_EQ(Out.EvictedDirty, RefDirty) << "divergence at access " << I;
    }
  }
}

} // namespace

TEST_P(CacheReferenceTest, RandomStreamAgreesAcrossStampRenumbering) {
  Rng R(42);
  uint64_t Size = sizeBytes();
  expectAgreementAcrossRenumbering(
      Size, assoc(), 60000, [&](const Cache &) {
        uintptr_t Addr = R.nextBool(0.7) ? R.nextBelow(4 * Size)
                                         : R.nextBelow(64 * Size);
        return std::pair<uintptr_t, bool>(Addr, R.nextBool(0.4));
      });
}

TEST_P(CacheReferenceTest, SetConflictStreamAgreesAcrossStampRenumbering) {
  Rng R(7);
  unsigned Lines = assoc() + 2;
  expectAgreementAcrossRenumbering(
      sizeBytes(), assoc(), 20000, [&](const Cache &Real) {
        uintptr_t Addr = Real.numSets() * 64 * R.nextBelow(Lines);
        return std::pair<uintptr_t, bool>(Addr, R.nextBool(0.5));
      });
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheReferenceTest,
    ::testing::Values(std::make_tuple(uint64_t(2048), 1u),
                      std::make_tuple(uint64_t(8192), 4u),
                      std::make_tuple(uint64_t(32768), 8u),
                      std::make_tuple(uint64_t(262144), 16u),
                      std::make_tuple(uint64_t(1024), 16u)),
    [](const ::testing::TestParamInfo<std::tuple<uint64_t, unsigned>> &Info) {
      return std::to_string(std::get<0>(Info.param)) + "B_" +
             std::to_string(std::get<1>(Info.param)) + "way";
    });
