//===- support/Json.cpp - Minimal streaming JSON writer -------------------===//

#include "support/Json.h"

#include <cassert>
#include <cmath>
#include <cstdio>

using namespace ddm;

void JsonWriter::beforeValue() {
  if (PendingKey) {
    PendingKey = false;
    return; // key() already placed the comma and the separator.
  }
  if (Stack.empty())
    return;
  assert(Stack.back().Kind == Scope::Array &&
         "object members need a key() before the value");
  if (Stack.back().HasEntries)
    Out += ',';
  Stack.back().HasEntries = true;
}

JsonWriter &JsonWriter::beginObject() {
  beforeValue();
  Out += '{';
  Stack.push_back({Scope::Object});
  return *this;
}

JsonWriter &JsonWriter::endObject() {
  assert(!Stack.empty() && Stack.back().Kind == Scope::Object &&
         "mismatched endObject");
  assert(!PendingKey && "key without a value");
  Stack.pop_back();
  Out += '}';
  return *this;
}

JsonWriter &JsonWriter::beginArray() {
  beforeValue();
  Out += '[';
  Stack.push_back({Scope::Array});
  return *this;
}

JsonWriter &JsonWriter::endArray() {
  assert(!Stack.empty() && Stack.back().Kind == Scope::Array &&
         "mismatched endArray");
  Stack.pop_back();
  Out += ']';
  return *this;
}

static void appendEscaped(std::string &Out, const std::string &S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}

JsonWriter &JsonWriter::key(const std::string &Name) {
  assert(!Stack.empty() && Stack.back().Kind == Scope::Object &&
         "key() outside of an object");
  assert(!PendingKey && "two keys in a row");
  if (Stack.back().HasEntries)
    Out += ',';
  Stack.back().HasEntries = true;
  appendEscaped(Out, Name);
  Out += ':';
  PendingKey = true;
  return *this;
}

JsonWriter &JsonWriter::value(const std::string &V) {
  beforeValue();
  appendEscaped(Out, V);
  return *this;
}

JsonWriter &JsonWriter::value(const char *V) { return value(std::string(V)); }

JsonWriter &JsonWriter::value(double V) {
  beforeValue();
  if (!std::isfinite(V)) {
    Out += "null"; // JSON has no NaN/Inf.
    return *this;
  }
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.10g", V);
  Out += Buf;
  return *this;
}

JsonWriter &JsonWriter::value(uint64_t V) {
  beforeValue();
  Out += std::to_string(V);
  return *this;
}

JsonWriter &JsonWriter::value(int64_t V) {
  beforeValue();
  Out += std::to_string(V);
  return *this;
}

JsonWriter &JsonWriter::value(bool V) {
  beforeValue();
  Out += V ? "true" : "false";
  return *this;
}

JsonWriter &JsonWriter::rawValue(const std::string &Json) {
  beforeValue();
  Out += Json;
  return *this;
}
