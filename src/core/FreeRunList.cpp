//===- core/FreeRunList.cpp - First-fit free runs over a frontier --------===//

#include "core/FreeRunList.h"

#include <algorithm>
#include <cassert>
#include <iterator>

using namespace ddm;

FreeRunList::Take FreeRunList::cut(RunMap::iterator It, size_t Length,
                                   size_t Scanned) {
  Take T{It->first, Length, Scanned, It->second > Length};
  if (T.Split)
    Runs.emplace(T.First + Length, It->second - Length);
  Runs.erase(It);
  return T;
}

FreeRunList::Take FreeRunList::take(size_t Length) {
  assert(Length > 0 && "must take at least one unit");
  size_t Scanned = 0;
  for (auto It = Runs.begin(), End = Runs.end(); It != End; ++It) {
    ++Scanned;
    if (It->second >= Length)
      return cut(It, Length, Scanned);
  }
  Take T = Length <= Capacity - Frontier ? takeFresh(Length) : Take();
  T.Scanned = Scanned;
  return T;
}

FreeRunList::Take FreeRunList::takeFresh(size_t MaxLength) {
  size_t Length = std::min(MaxLength, Capacity - Frontier);
  if (Length == 0)
    return Take();
  Frontier += Length;
  return Take{Frontier - Length, Length};
}

FreeRunList::Take FreeRunList::takeLowest(size_t MaxLength) {
  if (Runs.empty() || MaxLength == 0)
    return Take();
  auto It = Runs.begin();
  return cut(It, std::min(MaxLength, It->second), 1);
}

unsigned FreeRunList::release(size_t First, size_t Length) {
  assert(Length > 0 && First + Length <= Frontier &&
         "released run was never taken");
  unsigned Merges = 0;
  auto After = Runs.lower_bound(First);
  if (After != Runs.end() && After->first == First + Length) {
    Length += After->second;
    After = Runs.erase(After);
    ++Merges;
  }
  if (After != Runs.begin()) {
    auto Before = std::prev(After);
    if (Before->first + Before->second == First) {
      First = Before->first;
      Length += Before->second;
      Runs.erase(Before);
      ++Merges;
    }
  }
  Runs.emplace(First, Length);
  return Merges;
}

bool FreeRunList::verify() const {
  if (Frontier > Capacity)
    return false;
  size_t PrevEnd = 0;
  bool First = true;
  for (const auto &[Start, Length] : Runs) {
    if (Length == 0 || Start >= Frontier || Length > Frontier - Start)
      return false; // Empty run, or one reaching past the frontier.
    if (!First && Start <= PrevEnd)
      return false; // Overlaps (<) or touches (==) the previous run.
    PrevEnd = Start + Length;
    First = false;
  }
  return true;
}
