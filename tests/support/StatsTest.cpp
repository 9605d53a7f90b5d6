//===- tests/support/StatsTest.cpp - Stats unit tests ---------------------===//

#include "support/Stats.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace ddm;

TEST(RunningStatTest, EmptyIsAllZero) {
  RunningStat S;
  EXPECT_EQ(S.count(), 0u);
  EXPECT_EQ(S.mean(), 0.0);
  EXPECT_EQ(S.variance(), 0.0);
  EXPECT_EQ(S.min(), 0.0);
  EXPECT_EQ(S.max(), 0.0);
}

TEST(RunningStatTest, SingleSample) {
  RunningStat S;
  S.add(42.0);
  EXPECT_EQ(S.count(), 1u);
  EXPECT_DOUBLE_EQ(S.mean(), 42.0);
  EXPECT_DOUBLE_EQ(S.variance(), 0.0);
  EXPECT_DOUBLE_EQ(S.min(), 42.0);
  EXPECT_DOUBLE_EQ(S.max(), 42.0);
}

TEST(RunningStatTest, KnownMoments) {
  RunningStat S;
  for (double X : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
    S.add(X);
  EXPECT_DOUBLE_EQ(S.mean(), 5.0);
  EXPECT_DOUBLE_EQ(S.variance(), 4.0); // Classic textbook example.
  EXPECT_DOUBLE_EQ(S.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(S.min(), 2.0);
  EXPECT_DOUBLE_EQ(S.max(), 9.0);
  EXPECT_DOUBLE_EQ(S.sum(), 40.0);
}

TEST(RunningStatTest, MergeMatchesSequential) {
  Rng R(1);
  RunningStat Whole, PartA, PartB;
  for (int I = 0; I < 1000; ++I) {
    double X = R.nextDouble() * 100.0;
    Whole.add(X);
    (I % 2 ? PartA : PartB).add(X);
  }
  PartA.merge(PartB);
  EXPECT_EQ(PartA.count(), Whole.count());
  EXPECT_NEAR(PartA.mean(), Whole.mean(), 1e-9);
  EXPECT_NEAR(PartA.variance(), Whole.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(PartA.min(), Whole.min());
  EXPECT_DOUBLE_EQ(PartA.max(), Whole.max());
}

TEST(RunningStatTest, MergeWithEmptyIsIdentity) {
  RunningStat A, Empty;
  A.add(1.0);
  A.add(3.0);
  A.merge(Empty);
  EXPECT_EQ(A.count(), 2u);
  EXPECT_DOUBLE_EQ(A.mean(), 2.0);
  Empty.merge(A);
  EXPECT_EQ(Empty.count(), 2u);
  EXPECT_DOUBLE_EQ(Empty.mean(), 2.0);
}
