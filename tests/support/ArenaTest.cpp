//===- tests/support/ArenaTest.cpp - AlignedArena unit tests --------------===//

#include "support/Arena.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

using namespace ddm;

TEST(ArenaTest, BaseIsAligned) {
  for (size_t Alignment : {4096ul, 32768ul, 1048576ul}) {
    AlignedArena Arena(1 << 20, Alignment);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(Arena.base()) % Alignment, 0u);
    EXPECT_GE(Arena.size(), 1u << 20);
  }
}

TEST(ArenaTest, MemoryIsZeroedAndWritable) {
  AlignedArena Arena(64 * 1024, 4096);
  for (size_t I = 0; I < Arena.size(); I += 997)
    EXPECT_EQ(Arena.base()[I], std::byte{0});
  std::memset(Arena.base(), 0xAB, Arena.size());
  EXPECT_EQ(Arena.base()[Arena.size() - 1], std::byte{0xAB});
}

TEST(ArenaTest, Contains) {
  AlignedArena Arena(4096, 4096);
  EXPECT_TRUE(Arena.contains(Arena.base()));
  EXPECT_TRUE(Arena.contains(Arena.base() + 4095));
  EXPECT_FALSE(Arena.contains(Arena.base() + 4096));
  int Local;
  EXPECT_FALSE(Arena.contains(&Local));
}

TEST(ArenaTest, ResidentBytesGrowsWithTouch) {
  AlignedArena Arena(1 << 20, 4096);
  size_t Before = Arena.residentBytes();
  std::memset(Arena.base(), 1, 512 * 1024);
  size_t After = Arena.residentBytes();
  EXPECT_GE(After, Before);
  EXPECT_GE(After, 512u * 1024);
}

TEST(ArenaTest, MoveTransfersOwnership) {
  AlignedArena A(8192, 4096);
  std::byte *Base = A.base();
  AlignedArena B(std::move(A));
  EXPECT_EQ(B.base(), Base);
  EXPECT_EQ(A.base(), nullptr);
  AlignedArena C(4096, 4096);
  C = std::move(B);
  EXPECT_EQ(C.base(), Base);
}

TEST(ArenaTest, LazyCommitKeepsLargeReservationsCheap) {
  // A 1 GiB reservation must not consume 1 GiB of RAM.
  AlignedArena Arena(1ull << 30, 4096);
  Arena.base()[0] = std::byte{1};
  EXPECT_LT(Arena.residentBytes(), 64u * 1024 * 1024);
}

TEST(ArenaTest, TryReserveSucceedsWhereTheCtorWould) {
  std::string Error;
  std::optional<AlignedArena> Arena = AlignedArena::tryReserve(1 << 20, 32768, &Error);
  ASSERT_TRUE(Arena.has_value()) << Error;
  EXPECT_TRUE(Error.empty());
  EXPECT_EQ(reinterpret_cast<uintptr_t>(Arena->base()) % 32768, 0u);
  Arena->base()[0] = std::byte{1}; // writable
}

TEST(ArenaTest, TryReserveReportsImpossibleReservationWithErrno) {
  // An address-space-sized request must fail gracefully with the mmap
  // errno in the message, not abort the process like the constructor.
  std::string Error;
  std::optional<AlignedArena> Arena =
      AlignedArena::tryReserve(~uint64_t(0) >> 2, 4096, &Error);
  ASSERT_FALSE(Arena.has_value());
  EXPECT_NE(Error.find("mmap"), std::string::npos) << Error;
  EXPECT_NE(Error.find("failed"), std::string::npos) << Error;
}

TEST(ArenaTest, TryReserveHonorsTheArenaMapFaultSite) {
  FaultPlan Plan;
  std::string ParseError;
  ASSERT_TRUE(FaultPlan::parse("seed=1,arena_map:p=1", Plan, ParseError));
  FaultInjector::instance().arm(Plan);
  std::string Error;
  std::optional<AlignedArena> Arena =
      AlignedArena::tryReserve(1 << 20, 4096, &Error);
  FaultInjector::instance().disarm();
  ASSERT_FALSE(Arena.has_value());
  EXPECT_NE(Error.find("injected arena_map fault"), std::string::npos)
      << Error;
  // With the injector disarmed the identical request succeeds.
  EXPECT_TRUE(AlignedArena::tryReserve(1 << 20, 4096).has_value());
}

TEST(ArenaTest, ConcurrentReserveAndReleaseIsSafe) {
  // Native runs reserve per-thread heaps from several threads at once;
  // tryReserve/unmap must be safe to race (the kernel serializes mmap,
  // and the arena itself shares no mutable state between instances).
  constexpr int Threads = 4;
  constexpr int Rounds = 25;
  std::vector<std::thread> Workers;
  std::atomic<int> Failures{0};
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&] {
      for (int R = 0; R < Rounds; ++R) {
        std::optional<AlignedArena> Arena =
            AlignedArena::tryReserve(1 << 20, 32768);
        if (!Arena) {
          ++Failures;
          continue;
        }
        // Touch both ends: the mapping must be private to this instance.
        Arena->base()[0] = std::byte{1};
        Arena->base()[Arena->size() - 1] = std::byte{2};
      }
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(Failures.load(), 0);
}
