//===- support/Format.cpp - Human-readable value formatting --------------===//

#include "support/Format.h"

#include <cstdio>

using namespace ddm;

std::string ddm::formatBytes(uint64_t Bytes) {
  static const char *Units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double Value = static_cast<double>(Bytes);
  unsigned Unit = 0;
  while (Value >= 1024.0 && Unit < 4) {
    Value /= 1024.0;
    ++Unit;
  }
  char Buffer[48];
  if (Unit == 0)
    std::snprintf(Buffer, sizeof(Buffer), "%llu B",
                  static_cast<unsigned long long>(Bytes));
  else
    std::snprintf(Buffer, sizeof(Buffer), "%.1f %s", Value, Units[Unit]);
  return Buffer;
}
