//===- support/ArgParse.cpp - Minimal command-line flag parsing ----------===//

#include "support/ArgParse.h"

#include <cassert>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace ddm;

bool ddm::parseUint64(const char *Text, uint64_t &Value) {
  // strtoull skips leading whitespace and then happily consumes a '-'
  // (wrapping the result), so both must be rejected up front.
  if (!Text || *Text == '\0' || std::isspace(static_cast<unsigned char>(*Text)) ||
      *Text == '-' || *Text == '+')
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long Parsed = std::strtoull(Text, &End, 0);
  if (End == Text || *End != '\0' || errno == ERANGE)
    return false;
  Value = Parsed;
  return true;
}

bool ddm::parseInt64(const char *Text, int64_t &Value) {
  if (!Text || *Text == '\0' || std::isspace(static_cast<unsigned char>(*Text)))
    return false;
  errno = 0;
  char *End = nullptr;
  long long Parsed = std::strtoll(Text, &End, 0);
  if (End == Text || *End != '\0' || errno == ERANGE)
    return false;
  Value = Parsed;
  return true;
}

ArgParser::ArgParser(std::string ProgramDescription)
    : Description(std::move(ProgramDescription)) {}

void ArgParser::addFlagImpl(const std::string &Name, FlagKind Kind,
                            void *Storage, const std::string &Help,
                            std::string DefaultText) {
  assert(!findFlag(Name) && "duplicate flag registration");
  Flags.push_back(Flag{Name, Kind, Storage, Help, std::move(DefaultText)});
}

void ArgParser::addFlag(const std::string &Name, std::string *Storage,
                        const std::string &Help) {
  addFlagImpl(Name, FlagKind::String, Storage, Help, *Storage);
}

void ArgParser::addFlag(const std::string &Name, int64_t *Storage,
                        const std::string &Help) {
  addFlagImpl(Name, FlagKind::Int, Storage, Help, std::to_string(*Storage));
}

void ArgParser::addFlag(const std::string &Name, uint64_t *Storage,
                        const std::string &Help) {
  addFlagImpl(Name, FlagKind::Uint, Storage, Help, std::to_string(*Storage));
}

void ArgParser::addFlag(const std::string &Name, unsigned *Storage,
                        const std::string &Help) {
  addFlagImpl(Name, FlagKind::Uint32, Storage, Help, std::to_string(*Storage));
}

void ArgParser::addFlag(const std::string &Name, double *Storage,
                        const std::string &Help) {
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "%g", *Storage);
  addFlagImpl(Name, FlagKind::Double, Storage, Help, Buffer);
}

void ArgParser::addFlag(const std::string &Name, bool *Storage,
                        const std::string &Help) {
  addFlagImpl(Name, FlagKind::Bool, Storage, Help, *Storage ? "true" : "false");
}

ArgParser::Flag *ArgParser::findFlag(const std::string &Name) {
  for (Flag &F : Flags)
    if (F.Name == Name)
      return &F;
  return nullptr;
}

bool ArgParser::assign(Flag &F, const std::string &Value) {
  char *End = nullptr;
  switch (F.Kind) {
  case FlagKind::String:
    *static_cast<std::string *>(F.Storage) = Value;
    return true;
  case FlagKind::Int:
    return parseInt64(Value.c_str(), *static_cast<int64_t *>(F.Storage));
  case FlagKind::Uint:
    return parseUint64(Value.c_str(), *static_cast<uint64_t *>(F.Storage));
  case FlagKind::Uint32: {
    uint64_t Parsed;
    if (!parseUint64(Value.c_str(), Parsed) || Parsed > UINT_MAX)
      return false;
    *static_cast<unsigned *>(F.Storage) = static_cast<unsigned>(Parsed);
    return true;
  }
  case FlagKind::Double: {
    errno = 0;
    double Parsed = std::strtod(Value.c_str(), &End);
    if (End == Value.c_str() || *End != '\0' || errno == ERANGE)
      return false;
    *static_cast<double *>(F.Storage) = Parsed;
    return true;
  }
  case FlagKind::Bool: {
    if (Value == "true" || Value == "1" || Value == "yes") {
      *static_cast<bool *>(F.Storage) = true;
      return true;
    }
    if (Value == "false" || Value == "0" || Value == "no") {
      *static_cast<bool *>(F.Storage) = false;
      return true;
    }
    return false;
  }
  }
  return false;
}

bool ArgParser::parse(int Argc, const char *const *Argv) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      std::fputs(helpText(Argv[0]).c_str(), stdout);
      std::exit(0);
    }
    if (Arg.rfind("--", 0) != 0) {
      Positional.push_back(Arg);
      continue;
    }
    std::string Body = Arg.substr(2);
    std::string Value;
    bool HasValue = false;
    size_t Eq = Body.find('=');
    if (Eq != std::string::npos) {
      Value = Body.substr(Eq + 1);
      Body = Body.substr(0, Eq);
      HasValue = true;
    }

    Flag *F = findFlag(Body);
    // Support --no-foo for booleans.
    if (!F && Body.rfind("no-", 0) == 0) {
      Flag *Negated = findFlag(Body.substr(3));
      if (Negated && Negated->Kind == FlagKind::Bool && !HasValue) {
        *static_cast<bool *>(Negated->Storage) = false;
        continue;
      }
    }
    if (!F) {
      std::fprintf(stderr, "error: unknown flag '--%s' (try --help)\n",
                   Body.c_str());
      return false;
    }
    if (F->Kind == FlagKind::Bool && !HasValue) {
      *static_cast<bool *>(F->Storage) = true;
      continue;
    }
    if (!HasValue) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: flag '--%s' expects a value\n",
                     Body.c_str());
        return false;
      }
      Value = Argv[++I];
    }
    if (!assign(*F, Value)) {
      std::fprintf(stderr, "error: invalid value '%s' for flag '--%s'\n",
                   Value.c_str(), Body.c_str());
      return false;
    }
  }
  return true;
}

std::string ArgParser::helpText(const std::string &Argv0) const {
  std::string Out = Description + "\n\nusage: " + Argv0 + " [flags]\n\nflags:\n";
  for (const Flag &F : Flags) {
    Out += "  --" + F.Name;
    Out.append(F.Name.size() < 24 ? 24 - F.Name.size() : 1, ' ');
    Out += F.Help + " (default: " + F.DefaultText + ")\n";
  }
  return Out;
}
