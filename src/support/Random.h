//===- support/Random.h - Deterministic pseudo-random numbers --*- C++ -*-===//
///
/// \file
/// A small, fast, deterministic PRNG (xoshiro256**) plus the handful of
/// distributions the workload generators need. Everything in the project
/// that involves randomness flows through this class so that a run is fully
/// reproducible from a single 64-bit seed.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_SUPPORT_RANDOM_H
#define DDM_SUPPORT_RANDOM_H

#include <cassert>
#include <cmath>
#include <cstdint>

namespace ddm {

/// Deterministic pseudo-random number generator.
///
/// Uses splitmix64 to expand the seed into the xoshiro256** state, so any
/// seed (including 0) yields a well-mixed stream.
///
/// A (Seed, StreamId) pair names one of 2^64 non-overlapping substreams of
/// the same seeded sequence: stream k starts where k applications of the
/// xoshiro256 long jump (2^192 steps each) land, so streams never collide
/// for any realistic draw count. StreamId 0 is byte-identical to the
/// plain single-stream generator, which keeps every existing seeded run
/// reproducible while letting each native worker thread own stream
/// (ThreadIndex) of the same run seed.
class Rng {
public:
  explicit Rng(uint64_t Seed = 0x9e3779b97f4a7c15ull, uint64_t StreamId = 0) {
    reseed(Seed, StreamId);
  }

  /// Re-initializes the generator to substream \p StreamId of \p Seed.
  void reseed(uint64_t Seed, uint64_t StreamId = 0) {
    uint64_t X = Seed;
    for (auto &Word : State) {
      // splitmix64 step.
      X += 0x9e3779b97f4a7c15ull;
      uint64_t Z = X;
      Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
      Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
      Word = Z ^ (Z >> 31);
    }
    for (uint64_t I = 0; I < StreamId; ++I)
      longJump();
  }

  /// Advances the state by 2^192 steps (the xoshiro256 LONG_JUMP
  /// polynomial); used to carve the seed's sequence into per-thread
  /// substreams.
  void longJump() {
    static constexpr uint64_t Jump[4] = {
        0x76e15d3efefdcbbfull, 0xc5004e441c522fb3ull, 0x77710069854ee241ull,
        0x39109bb02acbe635ull};
    uint64_t S0 = 0, S1 = 0, S2 = 0, S3 = 0;
    for (uint64_t Word : Jump)
      for (int Bit = 0; Bit < 64; ++Bit) {
        if (Word & (1ull << Bit)) {
          S0 ^= State[0];
          S1 ^= State[1];
          S2 ^= State[2];
          S3 ^= State[3];
        }
        next();
      }
    State[0] = S0;
    State[1] = S1;
    State[2] = S2;
    State[3] = S3;
  }

  /// Returns the next raw 64-bit value.
  uint64_t next() {
    uint64_t Result = rotl(State[1] * 5, 7) * 9;
    uint64_t T = State[1] << 17;
    State[2] ^= State[0];
    State[3] ^= State[1];
    State[1] ^= State[2];
    State[0] ^= State[3];
    State[2] ^= T;
    State[3] = rotl(State[3], 45);
    return Result;
  }

  /// Returns a uniformly distributed integer in [0, Bound). \p Bound must be
  /// nonzero. Uses Lemire's multiply-shift rejection method.
  uint64_t nextBelow(uint64_t Bound) {
    assert(Bound > 0 && "nextBelow requires a nonzero bound");
    // A draw is rejected iff the low product word is below
    // Threshold = 2^64 mod Bound, which keeps the result exactly uniform.
    // Threshold < Bound, so a low word >= Bound is accepted without
    // computing it: the division runs only on the rare low-word-below-Bound
    // path (nearly divisionless), and the accept/reject decision of every
    // draw is the same as always computing the threshold.
    __uint128_t M = static_cast<__uint128_t>(next()) * Bound;
    if (static_cast<uint64_t>(M) < Bound) {
      uint64_t Threshold = (0 - Bound) % Bound;
      while (static_cast<uint64_t>(M) < Threshold)
        M = static_cast<__uint128_t>(next()) * Bound;
    }
    return static_cast<uint64_t>(M >> 64);
  }

  /// Returns a uniformly distributed integer in [Lo, Hi] inclusive.
  uint64_t nextInRange(uint64_t Lo, uint64_t Hi) {
    assert(Lo <= Hi && "empty range");
    return Lo + nextBelow(Hi - Lo + 1);
  }

  /// Returns a double uniformly distributed in [0, 1).
  double nextDouble() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Returns true with probability \p P (clamped to [0, 1]).
  bool nextBool(double P) {
    if (P <= 0.0)
      return false;
    if (P >= 1.0)
      return true;
    return nextDouble() < P;
  }

  /// Samples a geometric distribution: the number of failures before the
  /// first success with success probability \p P in (0, 1].
  uint64_t nextGeometric(double P) {
    assert(P > 0.0 && P <= 1.0 && "probability out of range");
    if (P >= 1.0)
      return 0;
    double U = nextDouble();
    // Avoid log(0).
    if (U <= 0.0)
      U = 0x1.0p-53;
    return static_cast<uint64_t>(std::log(U) / std::log1p(-P));
  }

  /// Samples a (discretized) log-normal distribution with the given
  /// parameters of the underlying normal. Useful for allocation sizes,
  /// which are heavily right-skewed in web workloads.
  double nextLogNormal(double Mu, double Sigma) {
    return std::exp(Mu + Sigma * nextGaussian());
  }

  /// Samples a standard normal via the polar Box-Muller method.
  double nextGaussian() {
    if (HasSpare) {
      HasSpare = false;
      return Spare;
    }
    double U, V, S;
    do {
      U = 2.0 * nextDouble() - 1.0;
      V = 2.0 * nextDouble() - 1.0;
      S = U * U + V * V;
    } while (S >= 1.0 || S == 0.0);
    double Factor = std::sqrt(-2.0 * std::log(S) / S);
    Spare = V * Factor;
    HasSpare = true;
    return U * Factor;
  }

  /// Derives an independent child generator; used to give each transaction
  /// or each runtime its own stream while staying reproducible.
  Rng split() { return Rng(next() ^ 0xd1b54a32d192ed03ull); }

private:
  static uint64_t rotl(uint64_t X, int K) {
    return (X << K) | (X >> (64 - K));
  }

  uint64_t State[4] = {};
  double Spare = 0.0;
  bool HasSpare = false;
};

} // namespace ddm

#endif // DDM_SUPPORT_RANDOM_H
