//===- tests/core/MisuseDeathTest.cpp - Programmatic-error handling -------===//
///
/// \file
/// The library's error philosophy (LLVM-style): programmatic errors abort
/// loudly at the point of failure. These death tests pin down that
/// misusing the API actually trips the checks rather than corrupting
/// memory silently.
///
//===----------------------------------------------------------------------===//

#include "core/AdaptiveAllocator.h"
#include "core/AllocatorFactory.h"
#include "core/BoundaryTagHeap.h"
#include "core/DDmalloc.h"
#include "support/Error.h"

#include <gtest/gtest.h>

using namespace ddm;

namespace {

AllocatorOptions smallConfig() {
  AllocatorOptions Options;
  Options.HeapReserveBytes = 8ull * 1024 * 1024;
  return Options;
}

} // namespace

TEST(MisuseDeathTest, FatalAborts) {
  EXPECT_DEATH(fatal("boom"), "ddmalloc fatal error: boom");
}

TEST(MisuseDeathTest, UnreachableAborts) {
  EXPECT_DEATH(unreachable("should not happen"),
               "unreachable: should not happen");
}

TEST(MisuseDeathTest, FreeAllOnMallocOnlyAllocatorsAborts) {
  // The paper's Ruby-study allocators support only the malloc-free
  // interface; calling freeAll on them is a programming error.
  for (AllocatorKind Kind : {AllocatorKind::Glibc, AllocatorKind::TCMalloc,
                             AllocatorKind::Hoard, AllocatorKind::Slab}) {
    auto A = createAllocator(Kind);
    ASSERT_FALSE(A->supportsBulkFree());
    EXPECT_DEATH(A->freeAll(), "no bulk free") << allocatorKindName(Kind);
  }
}

TEST(MisuseDeathTest, DDmallocForeignPointerFreeAsserts) {
  DDmallocAllocator A(smallConfig());
  int Local = 0;
  EXPECT_DEATH(A.deallocate(&Local), "not from this heap");
}

TEST(MisuseDeathTest, DDmallocFreeIntoUnusedSegmentAsserts) {
  DDmallocAllocator A(smallConfig());
  // An address inside the heap but in a never-allocated segment.
  void *P = A.allocate(64);
  auto Addr = reinterpret_cast<uintptr_t>(P) + 4 * A.options().SegmentSize;
  EXPECT_DEATH(A.deallocate(reinterpret_cast<void *>(Addr)),
               "unused segment");
}

TEST(MisuseDeathTest, BoundaryTagDoubleFreeAsserts) {
  BoundaryTagHeap H(1 << 20);
  void *P = H.malloc(100);
  void *Guard = H.malloc(100); // keep the chunk away from the wilderness
  H.free(P);
  EXPECT_DEATH(H.free(P), "double free");
  (void)Guard;
}

TEST(MisuseDeathTest, BoundaryTagNullFreeAsserts) {
  BoundaryTagHeap H(1 << 20);
  EXPECT_DEATH(H.free(nullptr), "bad pointer");
}

// The adaptive wrapper tracks every object it hands out; a pointer it
// never saw would silently leak (free) or corrupt the live table
// (realloc) if it only asserted, so these are fatal in Release too.
TEST(MisuseDeathTest, AdaptiveForeignPointerFreeAborts) {
  AdaptiveAllocator A;
  int Local = 0;
  EXPECT_DEATH(A.deallocate(&Local), "never allocated here");
}

TEST(MisuseDeathTest, AdaptiveDoubleFreeAborts) {
  AdaptiveAllocator A;
  void *P = A.allocate(64);
  ASSERT_NE(P, nullptr);
  A.deallocate(P);
  EXPECT_DEATH(A.deallocate(P), "never allocated here");
}

TEST(MisuseDeathTest, AdaptiveForeignPointerReallocAborts) {
  AdaptiveAllocator A;
  int Local = 0;
  EXPECT_DEATH(A.reallocate(&Local, sizeof(Local), 128),
               "never allocated here");
}

//===----------------------------------------------------------------------===//
// Zoo-wide misuse detection: every allocator kind, hardened and
// unhardened, must detect a double free and a foreign-pointer free with a
// loud death rather than silent corruption (DESIGN.md section 14).
//===----------------------------------------------------------------------===//

namespace {

/// (kind, hardened?) across the whole zoo.
class ZooMisuseDeathTest
    : public testing::TestWithParam<std::tuple<AllocatorKind, bool>> {
protected:
  std::unique_ptr<TxAllocator> makeAllocator() const {
    AllocatorOptions Options;
    Options.Hardening.Enabled = std::get<1>(GetParam());
    return createAllocator(std::get<0>(GetParam()), Options);
  }
};

/// Every double-free diagnostic in the tree names the duplicate free;
/// the adaptive wrapper reports the pointer as unknown instead.
constexpr const char *DoubleFreePattern =
    "double free|never allocated here";

/// Foreign-pointer diagnostics differ per allocator; the hardened wrapper
/// classifies the pointer's (absent) header as clobbered.
constexpr const char *ForeignFreePattern =
    "not from this heap|bad pointer|never allocated here|foreign pointer";

std::string zooParamName(
    const testing::TestParamInfo<std::tuple<AllocatorKind, bool>> &Info) {
  return std::string(allocatorKindName(std::get<0>(Info.param))) +
         (std::get<1>(Info.param) ? "_hardened" : "_plain");
}

} // namespace

TEST_P(ZooMisuseDeathTest, DoubleFreeDetected) {
  auto A = makeAllocator();
  void *P = A->allocate(64);
  ASSERT_NE(P, nullptr);
  // Keep the chunk away from the boundary-tag wilderness: a lone freed
  // chunk would coalesce into it and lose its header state.
  void *Guard = A->allocate(64);
  ASSERT_NE(Guard, nullptr);
  A->deallocate(P);
  EXPECT_DEATH(A->deallocate(P), DoubleFreePattern);
}

TEST_P(ZooMisuseDeathTest, ForeignPointerFreeDetected) {
  auto A = makeAllocator();
  // Keep the heap non-empty so pointer-validation paths that consult live
  // metadata have something to look at.
  void *P = A->allocate(64);
  ASSERT_NE(P, nullptr);
  alignas(8) unsigned char Local[64] = {};
  EXPECT_DEATH(A->deallocate(Local + 8), ForeignFreePattern);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ZooMisuseDeathTest,
    testing::Combine(testing::ValuesIn(allAllocatorKinds()),
                     testing::Bool()),
    zooParamName);
