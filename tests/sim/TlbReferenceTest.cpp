//===- tests/sim/TlbReferenceTest.cpp - Tlb vs reference model ------------===//
///
/// \file
/// Differential testing of the production Tlb (slot array, intrusive
/// recency list, open-addressed index with backward-shift deletion)
/// against a deliberately naive LRU list that moves a hit page to the back
/// and evicts from the front. The two must agree access by access over
/// random, strided and thrashing streams, across entry counts and page
/// sizes, and across reset().
///
//===----------------------------------------------------------------------===//

#include "sim/Tlb.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace ddm;

namespace {

/// The obviously-correct model: most recently used page at the back.
class ReferenceTlb {
public:
  ReferenceTlb(unsigned Entries, uint64_t PageBytes)
      : Entries(Entries), PageShift(__builtin_ctzll(PageBytes)) {}

  bool access(uintptr_t Addr) {
    uint64_t Page = Addr >> PageShift;
    auto It = std::find(Pages.begin(), Pages.end(), Page);
    if (It != Pages.end()) {
      Pages.erase(It);
      Pages.push_back(Page);
      return true;
    }
    if (Pages.size() == Entries)
      Pages.erase(Pages.begin());
    Pages.push_back(Page);
    return false;
  }

  void reset() { Pages.clear(); }

private:
  unsigned Entries;
  unsigned PageShift;
  std::vector<uint64_t> Pages;
};

class TlbReferenceTest
    : public ::testing::TestWithParam<std::tuple<unsigned, uint64_t>> {
protected:
  unsigned entries() const { return std::get<0>(GetParam()); }
  uint64_t pageBytes() const { return std::get<1>(GetParam()); }

  /// Feeds \p Addr to both models and checks they agree.
  void step(uintptr_t Addr, int I) {
    bool RealHit = Real.access(Addr);
    bool RefHit = Reference.access(Addr);
    ASSERT_EQ(RealHit, RefHit) << "divergence at access " << I;
    ExpectedHits += RefHit;
    ExpectedMisses += !RefHit;
  }

  void expectCounters() const {
    EXPECT_EQ(Real.hits(), ExpectedHits);
    EXPECT_EQ(Real.misses(), ExpectedMisses);
  }

  Tlb Real{entries(), pageBytes()};
  ReferenceTlb Reference{entries(), pageBytes()};
  uint64_t ExpectedHits = 0;
  uint64_t ExpectedMisses = 0;
};

} // namespace

TEST_P(TlbReferenceTest, RandomStreamAgreesWithReference) {
  Rng R(11);
  // Hot pages that mostly fit plus a cold range several times the reach.
  uint64_t Hot = uint64_t(entries()) * pageBytes() / 2 + pageBytes();
  uint64_t Cold = 8 * uint64_t(entries()) * pageBytes();
  for (int I = 0; I < 30000; ++I) {
    uintptr_t Addr = R.nextBool(0.7) ? R.nextBelow(Hot) : R.nextBelow(Cold);
    ASSERT_NO_FATAL_FAILURE(step(Addr, I));
  }
  expectCounters();
}

TEST_P(TlbReferenceTest, StridedStreamAgreesWithReference) {
  Rng R(12);
  // Sweeps at page-multiple strides over ranges just below, at and above
  // the TLB's reach, restarting at random bases.
  for (int I = 0; I < 30000;) {
    uint64_t Stride = pageBytes() * (1 + R.nextBelow(3));
    uint64_t Count = entries() + R.nextBelow(3) - 1;
    if (Count == 0)
      Count = 1;
    uintptr_t Base = R.nextBelow(64) * pageBytes();
    for (int Pass = 0; Pass < 3; ++Pass)
      for (uint64_t K = 0; K < Count; ++K, ++I)
        ASSERT_NO_FATAL_FAILURE(step(Base + K * Stride + (K & 63), I));
  }
  expectCounters();
}

TEST_P(TlbReferenceTest, ThrashingStreamAgreesWithReference) {
  // A cycle over one page more than the TLB holds misses on every access
  // under LRU once warm; the same cycle over exactly its capacity hits.
  int I = 0;
  for (int Round = 0; Round < 20; ++Round)
    for (uint64_t P = 0; P <= entries(); ++P, ++I)
      ASSERT_NO_FATAL_FAILURE(step(P * pageBytes(), I));
  uint64_t MissesBefore = Real.misses();
  for (uint64_t P = 0; P <= entries(); ++P, ++I)
    ASSERT_NO_FATAL_FAILURE(step(P * pageBytes(), I));
  EXPECT_EQ(Real.misses() - MissesBefore, uint64_t(entries()) + 1);
  for (int Round = 0; Round < 20; ++Round)
    for (uint64_t P = 0; P < entries(); ++P, ++I)
      ASSERT_NO_FATAL_FAILURE(step((P + 1000) * pageBytes(), I));
  expectCounters();
}

TEST_P(TlbReferenceTest, ResetAgreesWithReference) {
  Rng R(13);
  uint64_t Range = 3 * uint64_t(entries()) * pageBytes();
  for (int Phase = 0; Phase < 4; ++Phase) {
    for (int I = 0; I < 5000; ++I)
      ASSERT_NO_FATAL_FAILURE(step(R.nextBelow(Range), I));
    expectCounters();
    Real.reset();
    Reference.reset();
    ExpectedHits = ExpectedMisses = 0;
    EXPECT_EQ(Real.hits(), 0u);
    EXPECT_EQ(Real.misses(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbReferenceTest,
    ::testing::Combine(::testing::Values(1u, 2u, 16u, 64u, 256u),
                       ::testing::Values(uint64_t(4) << 10, uint64_t(8) << 10,
                                         uint64_t(2) << 20,
                                         uint64_t(4) << 20)),
    [](const ::testing::TestParamInfo<std::tuple<unsigned, uint64_t>> &Info) {
      return std::to_string(std::get<0>(Info.param)) + "entries_" +
             std::to_string(std::get<1>(Info.param) >> 10) + "KB";
    });
