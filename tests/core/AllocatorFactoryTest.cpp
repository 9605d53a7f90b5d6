//===- tests/core/AllocatorFactoryTest.cpp - Factory unit tests -----------===//

#include "core/AllocatorFactory.h"
#include "core/DDmalloc.h"
#include "page/PageBackend.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace ddm;

TEST(AllocatorFactoryTest, NamesRoundTrip) {
  for (AllocatorKind Kind : allAllocatorKinds()) {
    std::string Name = allocatorKindName(Kind);
    auto Parsed = allocatorKindFromName(Name);
    ASSERT_TRUE(Parsed.has_value()) << Name;
    EXPECT_EQ(*Parsed, Kind) << Name;
  }
}

TEST(AllocatorFactoryTest, NameListIsTheFullZoo) {
  // Adding a kind means adding it here on purpose: every consumer of
  // allocatorNames() (CLI flags, bench sweeps, the README table) picks the
  // new allocator up from this one list.
  const std::vector<std::string> Expected = {
      "ddmalloc", "region",   "obstack", "default", "glibc",
      "tcmalloc", "hoard",    "slab",    "adaptive"};
  EXPECT_EQ(allocatorNames(), Expected);
  EXPECT_EQ(allAllocatorKinds().size(), Expected.size());
  std::string Joined = allocatorNamesJoined();
  for (const std::string &Name : Expected)
    EXPECT_NE(Joined.find(Name), std::string::npos) << Name;
}

TEST(AllocatorFactoryTest, ReadmeAllocatorTableStaysInSync) {
  // The README's zoo table must list every factory name. Walk up from the
  // test's working directory to find the repo root.
  namespace fs = std::filesystem;
  fs::path Dir = fs::current_path();
  fs::path Readme;
  for (int Depth = 0; Depth < 8; ++Depth) {
    fs::path Candidate = Dir / "README.md";
    std::error_code Ec;
    if (fs::exists(Candidate, Ec)) {
      Readme = Candidate;
      break;
    }
    if (!Dir.has_parent_path() || Dir.parent_path() == Dir)
      break;
    Dir = Dir.parent_path();
  }
  if (Readme.empty())
    GTEST_SKIP() << "README.md not reachable from the test working directory";
  std::ifstream In(Readme);
  ASSERT_TRUE(In.good()) << Readme;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  const std::string Text = Buffer.str();
  for (const std::string &Name : allocatorNames())
    EXPECT_NE(Text.find("| `" + Name + "`"), std::string::npos)
        << "README.md zoo table is missing allocator '" << Name << "'";
}

TEST(AllocatorFactoryTest, BackendCapableKindsDrawFromABuddyBackend) {
  // Every kind whose table row claims page-backend support really routes
  // its heap span through the backend — and returns the span when the
  // allocator dies; every other kind leaves the backend untouched.
  auto Backend = createBuddyBackend(512ull * 1024 * 1024);
  for (AllocatorKind Kind : allAllocatorKinds()) {
    const bool Capable = allocatorTraits(Kind).PageBackend;
    const uint64_t LiveBefore = Backend->stats().PagesLive;
    const uint64_t AcquiredBefore = Backend->stats().PagesAcquired;
    {
      AllocatorOptions Options;
      Options.HeapReserveBytes = 16ull * 1024 * 1024;
      Options.RegionChunkBytes = 16ull * 1024 * 1024;
      Options.Backend = Backend;
      auto A = createAllocator(Kind, Options);
      void *P = A->allocate(256);
      ASSERT_NE(P, nullptr) << allocatorKindName(Kind);
      EXPECT_EQ(Backend->contains(P), Capable) << allocatorKindName(Kind);
      if (Capable)
        EXPECT_GT(Backend->stats().PagesLive, LiveBefore)
            << allocatorKindName(Kind);
      else
        EXPECT_EQ(Backend->stats().PagesAcquired, AcquiredBefore)
            << allocatorKindName(Kind) << " touched the page backend";
    }
    EXPECT_EQ(Backend->stats().PagesLive, LiveBefore)
        << allocatorKindName(Kind) << " leaked backend pages";
  }
  EXPECT_GT(Backend->stats().PagesReclaimed, 0u);
}

TEST(AllocatorFactoryTest, TraitsTableMatchesTheAllocators) {
  for (AllocatorKind Kind : allAllocatorKinds()) {
    const AllocatorTraits &T = allocatorTraits(Kind);
    EXPECT_EQ(T.Kind, Kind);
    EXPECT_EQ(allocatorKindName(Kind), std::string(T.Name));
    AllocatorOptions Options;
    Options.HeapReserveBytes = 32ull * 1024 * 1024;
    EXPECT_EQ(createAllocator(Kind, Options)->supportsBulkFree(), T.BulkFree)
        << T.Name;
    EXPECT_EQ(allocatorSupportsBulkFree(Kind), T.BulkFree) << T.Name;
    EXPECT_GT(T.CodeFootprintBytes, 0.0) << T.Name;
  }
}

TEST(AllocatorFactoryTest, CheckedRejectsASharedHeapOfAnotherKind) {
  // A handle built for tcmalloc fits tcmalloc only.
  AllocatorOptions Options;
  Options.HeapReserveBytes = 16ull * 1024 * 1024;
  std::string Error;
  Options.Shared = allocatorTraits(AllocatorKind::TCMalloc)
                       .BuildShared(Options, 2, Error);
  ASSERT_NE(Options.Shared, nullptr) << Error;
  EXPECT_NE(createAllocatorChecked(AllocatorKind::TCMalloc, Options, Error),
            nullptr)
      << Error;
  for (AllocatorKind Kind : {AllocatorKind::DDmalloc, AllocatorKind::Hoard,
                             AllocatorKind::Slab, AllocatorKind::Region}) {
    Error.clear();
    EXPECT_EQ(createAllocatorChecked(Kind, Options, Error), nullptr)
        << allocatorKindName(Kind);
    EXPECT_NE(Error.find("not built for"), std::string::npos) << Error;
  }
}

TEST(AllocatorFactoryTest, UnknownNameRejected) {
  EXPECT_FALSE(allocatorKindFromName("dlmalloc").has_value());
  EXPECT_FALSE(allocatorKindFromName("").has_value());
  EXPECT_FALSE(allocatorKindFromName("DDMALLOC").has_value());
}

TEST(AllocatorFactoryTest, EveryKindConstructsAWorkingAllocator) {
  for (AllocatorKind Kind : allAllocatorKinds()) {
    AllocatorOptions Options;
    Options.HeapReserveBytes = 32ull * 1024 * 1024;
    auto A = createAllocator(Kind, Options);
    ASSERT_NE(A, nullptr);
    EXPECT_STREQ(A->name(), allocatorKindName(Kind));
    void *P = A->allocate(128);
    ASSERT_NE(P, nullptr);
    A->deallocate(P);
    EXPECT_EQ(A->stats().MallocCalls, 1u);
    EXPECT_EQ(A->stats().FreeCalls, 1u);
  }
}

TEST(AllocatorFactoryTest, OptionsReachDDmalloc) {
  AllocatorOptions Options;
  Options.SegmentSize = 16 * 1024;
  Options.ProcessId = 7;
  Options.HeapReserveBytes = 32ull * 1024 * 1024;
  Options.MetadataColoring = true;
  auto A = createAllocator(AllocatorKind::DDmalloc, Options);
  auto *DDm = dynamic_cast<DDmallocAllocator *>(A.get());
  ASSERT_NE(DDm, nullptr);
  EXPECT_EQ(DDm->config().SegmentSize, 16u * 1024);
  EXPECT_EQ(DDm->config().ProcessId, 7u);
  EXPECT_GT(DDm->metadataOffset(), 0u);
}

TEST(AllocatorFactoryTest, StudyGroupsAreConsistent) {
  // The PHP study compares three allocators; all support bulk free.
  auto Php = phpStudyAllocatorKinds();
  EXPECT_EQ(Php.size(), 3u);
  for (AllocatorKind Kind : Php)
    EXPECT_TRUE(createAllocator(Kind)->supportsBulkFree())
        << allocatorKindName(Kind);
  // The Ruby study compares four; only DDmalloc has bulk free (unused
  // there) and all have per-object free.
  auto Ruby = rubyStudyAllocatorKinds();
  EXPECT_EQ(Ruby.size(), 4u);
  for (AllocatorKind Kind : Ruby)
    EXPECT_TRUE(createAllocator(Kind)->supportsPerObjectFree())
        << allocatorKindName(Kind);
  // Table 1's capability matrix, by kind.
  EXPECT_FALSE(createAllocator(AllocatorKind::Region)->supportsPerObjectFree());
  EXPECT_FALSE(createAllocator(AllocatorKind::Obstack)->supportsPerObjectFree());
  EXPECT_FALSE(createAllocator(AllocatorKind::Glibc)->supportsBulkFree());
  EXPECT_FALSE(createAllocator(AllocatorKind::TCMalloc)->supportsBulkFree());
  EXPECT_FALSE(createAllocator(AllocatorKind::Hoard)->supportsBulkFree());
}

TEST(AllocatorFactoryTest, CheckedConstructionSucceedsForEveryKind) {
  for (AllocatorKind Kind : allAllocatorKinds()) {
    AllocatorOptions Options;
    Options.HeapReserveBytes = 32ull * 1024 * 1024;
    Options.RegionChunkBytes = 32ull * 1024 * 1024;
    std::string Error;
    auto A = createAllocatorChecked(Kind, Options, Error);
    ASSERT_NE(A, nullptr) << allocatorKindName(Kind) << ": " << Error;
    EXPECT_TRUE(Error.empty());
    EXPECT_NE(A->allocate(64), nullptr);
  }
}

TEST(AllocatorFactoryTest, CheckedRejectsBadDDmallocConfiguration) {
  // The same configurations the constructor would abort on come back as
  // clean diagnostics instead.
  std::string Error;
  AllocatorOptions Options;
  Options.SegmentSize = 3000; // not a power of two
  EXPECT_EQ(createAllocatorChecked(AllocatorKind::DDmalloc, Options, Error),
            nullptr);
  EXPECT_NE(Error.find("power of two"), std::string::npos) << Error;

  Options = AllocatorOptions();
  Options.HeapReserveBytes = 2 * Options.SegmentSize;
  EXPECT_EQ(createAllocatorChecked(AllocatorKind::DDmalloc, Options, Error),
            nullptr);
  EXPECT_NE(Error.find("too small"), std::string::npos) << Error;
}

TEST(AllocatorFactoryTest, CheckedRejectsImpossibleReservation) {
  std::string Error;
  AllocatorOptions Options;
  Options.HeapReserveBytes = ~uint64_t(0) >> 2; // beyond any address space
  EXPECT_EQ(createAllocatorChecked(AllocatorKind::Glibc, Options, Error),
            nullptr);
  EXPECT_NE(Error.find("too large for this system"), std::string::npos)
      << Error;
  EXPECT_NE(Error.find("mmap"), std::string::npos) << Error;
}

TEST(AllocatorFactoryTest, SeparateInstancesAreIndependentHeaps) {
  AllocatorOptions Options;
  Options.HeapReserveBytes = 16ull * 1024 * 1024;
  auto A = createAllocator(AllocatorKind::DDmalloc, Options);
  auto B = createAllocator(AllocatorKind::DDmalloc, Options);
  void *Pa = A->allocate(64);
  void *Pb = B->allocate(64);
  EXPECT_NE(Pa, Pb);
  auto *DDa = dynamic_cast<DDmallocAllocator *>(A.get());
  auto *DDb = dynamic_cast<DDmallocAllocator *>(B.get());
  EXPECT_TRUE(DDa->owns(Pa));
  EXPECT_FALSE(DDa->owns(Pb));
  EXPECT_TRUE(DDb->owns(Pb));
}
