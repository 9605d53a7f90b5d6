//===- support/ArgParse.h - Minimal command-line flag parsing --*- C++ -*-===//
///
/// \file
/// A tiny declarative flag parser shared by the bench binaries and example
/// programs: `--name value`, `--name=value`, and boolean `--name` /
/// `--no-name` forms. Unknown flags are an error; `--help` prints the
/// registered flags and exits.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_SUPPORT_ARGPARSE_H
#define DDM_SUPPORT_ARGPARSE_H

#include <cstdint>
#include <string>
#include <vector>

namespace ddm {

/// Strict whole-string unsigned parse: accepts exactly one non-negative
/// integer (base 10, or 0x/0 prefixed) with no surrounding whitespace, no
/// sign, no trailing garbage, and no out-of-range wrap-around — the cases
/// strtoull silently accepts (`-1` wraps to 2^64-1, `9e99` parses as 9).
/// Returns false without touching \p Value on any violation.
bool parseUint64(const char *Text, uint64_t &Value);

/// The signed counterpart: optional leading '-', otherwise the same
/// strictness (whole string, no whitespace, ERANGE rejected).
bool parseInt64(const char *Text, int64_t &Value);

/// Declarative command-line parser.
class ArgParser {
public:
  explicit ArgParser(std::string ProgramDescription);

  /// Registers flags backed by caller-owned storage; the storage's initial
  /// value is the default shown in --help.
  void addFlag(const std::string &Name, std::string *Storage,
               const std::string &Help);
  void addFlag(const std::string &Name, int64_t *Storage,
               const std::string &Help);
  void addFlag(const std::string &Name, uint64_t *Storage,
               const std::string &Help);
  /// Like the uint64_t overload, but values above UINT_MAX are malformed
  /// (rejected, never truncated).
  void addFlag(const std::string &Name, unsigned *Storage,
               const std::string &Help);
  void addFlag(const std::string &Name, double *Storage,
               const std::string &Help);
  void addFlag(const std::string &Name, bool *Storage, const std::string &Help);

  /// Parses \p Argv. Returns false (after printing a message) on malformed
  /// input or unknown flags. Exits the process for --help.
  bool parse(int Argc, const char *const *Argv);

  /// Positional (non-flag) arguments collected during parse().
  const std::vector<std::string> &positional() const { return Positional; }

  /// Renders the --help text.
  std::string helpText(const std::string &Argv0) const;

private:
  enum class FlagKind { String, Int, Uint, Uint32, Double, Bool };

  struct Flag {
    std::string Name;
    FlagKind Kind;
    void *Storage;
    std::string Help;
    std::string DefaultText;
  };

  void addFlagImpl(const std::string &Name, FlagKind Kind, void *Storage,
                   const std::string &Help, std::string DefaultText);
  Flag *findFlag(const std::string &Name);
  bool assign(Flag &F, const std::string &Value);

  std::string Description;
  std::vector<Flag> Flags;
  std::vector<std::string> Positional;
};

} // namespace ddm

#endif // DDM_SUPPORT_ARGPARSE_H
