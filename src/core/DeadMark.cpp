//===- core/DeadMark.cpp - Double-free marks for bump allocators ---------===//

#include "core/DeadMark.h"
#include "support/Error.h"

#include <atomic>
#include <string>

using namespace ddm;

namespace {

/// splitmix64 finalizer: the mark is injective in the epoch for a fixed
/// address.
uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

std::atomic<uint64_t> NextFreeAllEpoch{0};

} // namespace

uint64_t ddm::takeFreeAllEpoch() { return NextFreeAllEpoch++; }

void ddm::stampDeadMark(void *Ptr, uint64_t Epoch, const char *What) {
  auto *Mark = static_cast<uint64_t *>(Ptr);
  uint64_t Dead = mix64(reinterpret_cast<uintptr_t>(Ptr) ^
                        Epoch * 0x9e3779b97f4a7c15ull ^ 0xdead0b5eull);
  if (*Mark == Dead)
    fatal(std::string("heap corruption detected: double free of ") + What);
  *Mark = Dead;
}
