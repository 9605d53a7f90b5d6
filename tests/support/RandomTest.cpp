//===- tests/support/RandomTest.cpp - Rng unit tests ----------------------===//

#include "support/Random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

using namespace ddm;

TEST(RandomTest, DeterministicForSameSeed) {
  Rng A(42), B(42);
  for (int I = 0; I < 1000; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RandomTest, DifferentSeedsDiverge) {
  Rng A(1), B(2);
  int Equal = 0;
  for (int I = 0; I < 1000; ++I)
    if (A.next() == B.next())
      ++Equal;
  EXPECT_LT(Equal, 5);
}

TEST(RandomTest, ReseedRestartsTheStream) {
  Rng A(7);
  uint64_t First = A.next();
  A.next();
  A.reseed(7);
  EXPECT_EQ(A.next(), First);
}

TEST(RandomTest, NextBelowStaysInRange) {
  Rng R(3);
  for (uint64_t Bound : {1ull, 2ull, 7ull, 100ull, 1000000007ull}) {
    for (int I = 0; I < 200; ++I)
      EXPECT_LT(R.nextBelow(Bound), Bound);
  }
}

TEST(RandomTest, NextBelowOneIsAlwaysZero) {
  Rng R(4);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(R.nextBelow(1), 0u);
}

namespace {

/// The threshold-rejection loop nextBelow used before it skipped the
/// division: compute 2^64 mod Bound up front, then draw until the low
/// product word reaches it. Counts rejected draws in \p Rejections.
uint64_t thresholdNextBelow(Rng &R, uint64_t Bound, uint64_t &Rejections) {
  uint64_t Threshold = (0 - Bound) % Bound;
  for (;;) {
    __uint128_t M = static_cast<__uint128_t>(R.next()) * Bound;
    if (static_cast<uint64_t>(M) >= Threshold)
      return static_cast<uint64_t>(M >> 64);
    ++Rejections;
  }
}

} // namespace

TEST(RandomTest, NextBelowMatchesThresholdRejection) {
  // Same values and the same stream position after every call, including
  // on bounds near 2^63 where a large share of draws is rejected.
  const uint64_t Bounds[] = {1, 3, (1ull << 32) + 1, (1ull << 63) + 1,
                             3ull << 62};
  for (uint64_t Bound : Bounds) {
    Rng Fast(0xb0d5 + Bound), Reference(0xb0d5 + Bound);
    uint64_t Rejections = 0;
    for (int I = 0; I < 4000; ++I) {
      ASSERT_EQ(Fast.nextBelow(Bound),
                thresholdNextBelow(Reference, Bound, Rejections))
          << "bound " << Bound << ", call " << I;
      Rng FastNext = Fast, ReferenceNext = Reference;
      ASSERT_EQ(FastNext.next(), ReferenceNext.next())
          << "stream position diverged: bound " << Bound << ", call " << I;
    }
    if (Bound > (1ull << 62)) {
      EXPECT_GT(Rejections, 500u) << "bound " << Bound;
    }
  }
}

TEST(RandomTest, NextInRangeInclusive) {
  Rng R(5);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 1000; ++I) {
    uint64_t V = R.nextInRange(10, 12);
    EXPECT_GE(V, 10u);
    EXPECT_LE(V, 12u);
    Seen.insert(V);
  }
  // All three values should appear in 1000 draws.
  EXPECT_EQ(Seen.size(), 3u);
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Rng R(6);
  double Sum = 0;
  for (int I = 0; I < 10000; ++I) {
    double V = R.nextDouble();
    ASSERT_GE(V, 0.0);
    ASSERT_LT(V, 1.0);
    Sum += V;
  }
  EXPECT_NEAR(Sum / 10000.0, 0.5, 0.02);
}

TEST(RandomTest, NextBoolMatchesProbability) {
  Rng R(8);
  int True30 = 0;
  for (int I = 0; I < 20000; ++I)
    True30 += R.nextBool(0.3);
  EXPECT_NEAR(True30 / 20000.0, 0.3, 0.02);
  EXPECT_FALSE(R.nextBool(0.0));
  EXPECT_TRUE(R.nextBool(1.0));
}

TEST(RandomTest, GeometricMeanMatchesTheory) {
  Rng R(9);
  double P = 0.25;
  double Sum = 0;
  int N = 20000;
  for (int I = 0; I < N; ++I)
    Sum += static_cast<double>(R.nextGeometric(P));
  // Mean failures before success: (1-P)/P = 3.
  EXPECT_NEAR(Sum / N, 3.0, 0.15);
}

TEST(RandomTest, GeometricWithCertainSuccessIsZero) {
  Rng R(10);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(R.nextGeometric(1.0), 0u);
}

TEST(RandomTest, GeometricWithPrecomputedLogDrawsTheSameStream) {
  // The lifetime draw passes log1p(-P) in once per transaction; it must
  // draw exactly what the one-argument form draws, P = 1 included.
  for (double P : {0.08, 0.25, 0.9, 1.0}) {
    Rng A(12), B(12);
    double Log1mP = std::log1p(-P);
    for (int I = 0; I < 1000; ++I)
      ASSERT_EQ(A.nextGeometric(P), B.nextGeometric(P, Log1mP)) << P;
    EXPECT_EQ(A.next(), B.next()) << P;
  }
}

TEST(RandomTest, GaussianMoments) {
  Rng R(11);
  double Sum = 0, SumSq = 0;
  int N = 50000;
  for (int I = 0; I < N; ++I) {
    double V = R.nextGaussian();
    Sum += V;
    SumSq += V * V;
  }
  EXPECT_NEAR(Sum / N, 0.0, 0.03);
  EXPECT_NEAR(SumSq / N, 1.0, 0.05);
}

TEST(RandomTest, LogNormalIsPositiveAndSkewed) {
  Rng R(12);
  double Sum = 0;
  int N = 20000;
  for (int I = 0; I < N; ++I) {
    double V = R.nextLogNormal(3.0, 1.0);
    ASSERT_GT(V, 0.0);
    Sum += V;
  }
  // E[lognormal(mu, sigma)] = exp(mu + sigma^2/2).
  EXPECT_NEAR(Sum / N, std::exp(3.5), std::exp(3.5) * 0.1);
}

TEST(RandomTest, SplitProducesIndependentStream) {
  Rng A(13);
  Rng Child = A.split();
  int Equal = 0;
  for (int I = 0; I < 1000; ++I)
    if (A.next() == Child.next())
      ++Equal;
  EXPECT_LT(Equal, 5);
}

TEST(RandomTest, StreamZeroMatchesThePlainGenerator) {
  // StreamId 0 must be byte-identical to the pre-stream behaviour: every
  // seeded sequence in the repo stays reproducible.
  Rng Plain(42);
  Rng Stream0(42, 0);
  for (int I = 0; I < 2000; ++I)
    ASSERT_EQ(Plain.next(), Stream0.next());
}

TEST(RandomTest, DistinctStreamsNeverOverlapLocally) {
  Rng S0(42, 0), S1(42, 1), S2(42, 2);
  int Equal01 = 0, Equal12 = 0;
  for (int I = 0; I < 2000; ++I) {
    uint64_t A = S0.next(), B = S1.next(), C = S2.next();
    Equal01 += A == B;
    Equal12 += B == C;
  }
  EXPECT_LT(Equal01, 5);
  EXPECT_LT(Equal12, 5);
}

TEST(RandomTest, StreamsAreReproducible) {
  Rng A(7, 3), B(7, 3);
  for (int I = 0; I < 1000; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RandomTest, StreamKIsKLongJumps) {
  // Stream construction is defined as k applications of longJump() on the
  // seeded state.
  Rng ByCtor(99, 2);
  Rng ByJump(99);
  ByJump.longJump();
  ByJump.longJump();
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(ByCtor.next(), ByJump.next());
}

TEST(RandomTest, ReseedResetsTheStream) {
  Rng R(5, 4);
  std::vector<uint64_t> First;
  for (int I = 0; I < 100; ++I)
    First.push_back(R.next());
  R.reseed(5, 4);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(R.next(), First[I]);
}
