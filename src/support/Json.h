//===- support/Json.h - Minimal streaming JSON writer ----------*- C++ -*-===//
///
/// \file
/// A tiny streaming JSON emitter for the benches' --json output mode:
/// objects, arrays, and scalar values with automatic comma placement and
/// string escaping. Write-only by design — the repo never parses JSON,
/// it only hands machine-readable results to external tooling.
///
/// Drivers write the envelope (bench name, seed, scale, summary fields)
/// here and their result rows through Table::writeJson(), which emits
/// every value with the same value() calls, so a row reads the same
/// whether it came from a Table or from field() chains.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_SUPPORT_JSON_H
#define DDM_SUPPORT_JSON_H

#include <cstdint>
#include <string>
#include <vector>

namespace ddm {

/// Streaming JSON writer with automatic commas.
///
///   JsonWriter J;
///   J.beginObject().field("bench", "latency_tail").key("points").beginArray();
///   J.beginObject().field("p99_ms", 12.5).endObject();
///   J.endArray().endObject();
///   puts(J.str().c_str());
class JsonWriter {
public:
  JsonWriter &beginObject();
  JsonWriter &endObject();
  JsonWriter &beginArray();
  JsonWriter &endArray();

  /// Emits an object key; the next value call supplies its value.
  JsonWriter &key(const std::string &Name);

  JsonWriter &value(const std::string &V);
  JsonWriter &value(const char *V);
  JsonWriter &value(double V);
  JsonWriter &value(uint64_t V);
  JsonWriter &value(int64_t V);
  JsonWriter &value(unsigned V) { return value(static_cast<uint64_t>(V)); }
  JsonWriter &value(int V) { return value(static_cast<int64_t>(V)); }
  JsonWriter &value(bool V);
  /// Emits \p Json, an already rendered JSON value (a component's own
  /// report), verbatim.
  JsonWriter &rawValue(const std::string &Json);

  /// key() + value() in one call.
  template <typename T> JsonWriter &field(const std::string &Name, T &&V) {
    key(Name);
    return value(std::forward<T>(V));
  }

  /// The document so far. Complete once every begin* has been closed.
  const std::string &str() const { return Out; }

private:
  void beforeValue();

  enum class Scope { Object, Array };
  struct Level {
    Scope Kind;
    bool HasEntries = false;
  };

  std::string Out;
  std::vector<Level> Stack;
  bool PendingKey = false;
};

} // namespace ddm

#endif // DDM_SUPPORT_JSON_H
