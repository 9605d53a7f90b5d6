//===- support/Format.h - Human-readable value formatting ------*- C++ -*-===//
///
/// \file
/// Byte counts with binary units, for reports.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_SUPPORT_FORMAT_H
#define DDM_SUPPORT_FORMAT_H

#include <cstdint>
#include <string>

namespace ddm {

/// Formats \p Bytes as "123 B", "1.5 KiB", "3.2 MiB", ...
std::string formatBytes(uint64_t Bytes);

} // namespace ddm

#endif // DDM_SUPPORT_FORMAT_H
