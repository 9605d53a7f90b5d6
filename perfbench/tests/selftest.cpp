//===- perfbench/tests/selftest.cpp - Order-statistics checks -------------===//
///
/// \file
/// Checks the benchmark's percentile helper against the "at least ten
/// samples beyond" rule and its quartiles against hand-computed values.
/// Exits nonzero on the first failed check.
///
//===----------------------------------------------------------------------===//

#include "Percentile.h"

#include <cstdio>
#include <numeric>

using namespace perfbench;

namespace {

int Failures = 0;

void expect(bool Ok, const char *What) {
  if (!Ok) {
    std::fprintf(stderr, "FAIL: %s\n", What);
    ++Failures;
  }
}

std::vector<double> iota(size_t N) {
  std::vector<double> V(N);
  std::iota(V.begin(), V.end(), 1.0);
  return V;
}

} // namespace

int main() {
  // p99 needs 1000 samples: rank 990 leaves exactly ten beyond it.
  expect(!percentile(iota(999), 0.99), "p99 refused below 1000 samples");
  expect(percentile(iota(1000), 0.99) == 990.0, "p99 of 1..1000 is 990");
  expect(percentile(iota(2000), 0.99) == 1980.0, "p99 of 1..2000 is 1980");
  // p50 needs 20 samples.
  expect(!percentile(iota(19), 0.5), "p50 refused below 20 samples");
  expect(percentile(iota(20), 0.5) == 10.0, "p50 of 1..20 is 10");
  expect(!percentile({}, 0.5), "no percentile of nothing");
  expect(!percentile(iota(10), 1.0), "p100 never has samples beyond");
  expect(!percentile(iota(9999), 0.999), "p99.9 refused below 10000 samples");
  expect(percentile(iota(10000), 0.999) == 9990.0, "p99.9 of 1..10000 is 9990");

  Summary S = summarize({5, 1, 3, 2, 4});
  expect(S.N == 5 && S.Median == 3 && S.Q1 == 2 && S.Q3 == 4,
         "quartiles of 1..5");
  S = summarize({1, 2, 3, 4});
  expect(S.Median == 2.5 && S.Q1 == 1.75 && S.Q3 == 3.25, "quartiles of 1..4");

  if (Failures == 0)
    std::printf("selftest: all checks passed\n");
  return Failures == 0 ? 0 : 1;
}
