//===- tests/support/ArgParseTest.cpp - ArgParser unit tests --------------===//

#include "support/ArgParse.h"

#include <gtest/gtest.h>

#include <climits>
#include <string>

using namespace ddm;

namespace {

bool parseArgs(ArgParser &Parser, std::initializer_list<const char *> Args) {
  std::vector<const char *> Argv = {"prog"};
  Argv.insert(Argv.end(), Args.begin(), Args.end());
  return Parser.parse(static_cast<int>(Argv.size()), Argv.data());
}

} // namespace

TEST(ArgParseTest, AllTypesSpaceForm) {
  ArgParser P("test");
  std::string S = "def";
  int64_t I = 0;
  uint64_t U = 0;
  double D = 0;
  bool B = false;
  P.addFlag("s", &S, "string");
  P.addFlag("i", &I, "int");
  P.addFlag("u", &U, "uint");
  P.addFlag("d", &D, "double");
  P.addFlag("b", &B, "bool");
  EXPECT_TRUE(parseArgs(P, {"--s", "hello", "--i", "-3", "--u", "9", "--d",
                            "2.5", "--b"}));
  EXPECT_EQ(S, "hello");
  EXPECT_EQ(I, -3);
  EXPECT_EQ(U, 9u);
  EXPECT_DOUBLE_EQ(D, 2.5);
  EXPECT_TRUE(B);
}

TEST(ArgParseTest, EqualsForm) {
  ArgParser P("test");
  int64_t I = 0;
  bool B = true;
  P.addFlag("i", &I, "int");
  P.addFlag("b", &B, "bool");
  EXPECT_TRUE(parseArgs(P, {"--i=17", "--b=false"}));
  EXPECT_EQ(I, 17);
  EXPECT_FALSE(B);
}

TEST(ArgParseTest, NegatedBool) {
  ArgParser P("test");
  bool B = true;
  P.addFlag("color", &B, "bool");
  EXPECT_TRUE(parseArgs(P, {"--no-color"}));
  EXPECT_FALSE(B);
}

TEST(ArgParseTest, UnknownFlagFails) {
  ArgParser P("test");
  EXPECT_FALSE(parseArgs(P, {"--nope"}));
}

TEST(ArgParseTest, MissingValueFails) {
  ArgParser P("test");
  int64_t I = 0;
  P.addFlag("i", &I, "int");
  EXPECT_FALSE(parseArgs(P, {"--i"}));
}

TEST(ArgParseTest, BadNumberFails) {
  ArgParser P("test");
  int64_t I = 0;
  uint64_t U = 0;
  P.addFlag("i", &I, "int");
  P.addFlag("u", &U, "uint");
  EXPECT_FALSE(parseArgs(P, {"--i", "abc"}));
  ArgParser P2("test");
  P2.addFlag("u", &U, "uint");
  EXPECT_FALSE(parseArgs(P2, {"--u", "-1"}));
}

TEST(ArgParseTest, PositionalCollected) {
  ArgParser P("test");
  int64_t I = 0;
  P.addFlag("i", &I, "int");
  EXPECT_TRUE(parseArgs(P, {"alpha", "--i", "2", "beta"}));
  ASSERT_EQ(P.positional().size(), 2u);
  EXPECT_EQ(P.positional()[0], "alpha");
  EXPECT_EQ(P.positional()[1], "beta");
}

TEST(ArgParseTest, HelpTextListsFlagsAndDefaults) {
  ArgParser P("my tool");
  int64_t I = 42;
  P.addFlag("iterations", &I, "how many");
  std::string Help = P.helpText("prog");
  EXPECT_NE(Help.find("my tool"), std::string::npos);
  EXPECT_NE(Help.find("--iterations"), std::string::npos);
  EXPECT_NE(Help.find("42"), std::string::npos);
}

TEST(ArgParseTest, ParseUint64RejectsEveryStrtoullTrap) {
  // The exact values strtoull accepts silently: negatives (wrap to huge),
  // whitespace-prefixed negatives (skip the Value[0] check), out-of-range
  // (ERANGE, clamped to ULLONG_MAX), and trailing garbage.
  uint64_t V = 123;
  EXPECT_FALSE(parseUint64("-1", V));
  EXPECT_FALSE(parseUint64(" -1", V));
  EXPECT_FALSE(parseUint64("\t-5", V));
  EXPECT_FALSE(parseUint64("+3", V));
  EXPECT_FALSE(parseUint64("", V));
  EXPECT_FALSE(parseUint64(" ", V));
  EXPECT_FALSE(parseUint64("abc", V));
  EXPECT_FALSE(parseUint64("12abc", V));
  EXPECT_FALSE(parseUint64("1 ", V));
  EXPECT_FALSE(parseUint64("99999999999999999999", V)); // > 2^64-1
  EXPECT_FALSE(parseUint64(nullptr, V));
  EXPECT_EQ(V, 123u) << "failed parses must not clobber the output";
}

TEST(ArgParseTest, ParseUint64AcceptsWholeRange) {
  uint64_t V = 0;
  ASSERT_TRUE(parseUint64("0", V));
  EXPECT_EQ(V, 0u);
  ASSERT_TRUE(parseUint64("18446744073709551615", V)); // 2^64-1
  EXPECT_EQ(V, ~uint64_t(0));
  ASSERT_TRUE(parseUint64("0x10", V)); // base prefixes still work
  EXPECT_EQ(V, 16u);
}

TEST(ArgParseTest, ParseInt64RejectsRangeAndGarbage) {
  int64_t V = 5;
  EXPECT_FALSE(parseInt64("9223372036854775808", V));  // INT64_MAX + 1
  EXPECT_FALSE(parseInt64("-9223372036854775809", V)); // INT64_MIN - 1
  EXPECT_FALSE(parseInt64(" 1", V));
  EXPECT_FALSE(parseInt64("1x", V));
  EXPECT_FALSE(parseInt64("", V));
  EXPECT_EQ(V, 5);
  ASSERT_TRUE(parseInt64("-9223372036854775808", V));
  EXPECT_EQ(V, INT64_MIN);
}

TEST(ArgParseTest, UintFlagRejectsWhitespaceNegativeAndOverflow) {
  // Regression: "--seed=-1" used to wrap to 2^64-1 through strtoull when
  // hidden behind whitespace, and overflow was accepted as ULLONG_MAX.
  uint64_t U = 7;
  ArgParser P("test");
  P.addFlag("u", &U, "uint");
  EXPECT_FALSE(parseArgs(P, {"--u", " -1"}));
  ArgParser P2("test");
  P2.addFlag("u", &U, "uint");
  EXPECT_FALSE(parseArgs(P2, {"--u", "99999999999999999999"}));
  EXPECT_EQ(U, 7u);
}

TEST(ArgParseTest, IntFlagRejectsOverflow) {
  int64_t I = 3;
  ArgParser P("test");
  P.addFlag("i", &I, "int");
  EXPECT_FALSE(parseArgs(P, {"--i", "99999999999999999999"}));
  EXPECT_EQ(I, 3);
}

TEST(ArgParseTest, UnsignedFlagRejectsValuesAboveUintMax) {
  // Regression: drivers parsed counts as uint64_t and narrowed them with
  // static_cast<unsigned>, so 4294967296 became 0 and 4294967298 became 2.
  for (const char *Text : {"4294967296", "4294967298", "-1", " 3", "3x"}) {
    unsigned U = 7;
    ArgParser P("test");
    P.addFlag("u", &U, "unsigned");
    EXPECT_FALSE(parseArgs(P, {"--u", Text})) << Text;
    EXPECT_EQ(U, 7u) << Text;
  }
  unsigned U = 0;
  ArgParser P("test");
  P.addFlag("u", &U, "unsigned");
  EXPECT_NE(P.helpText("prog").find("(default: 0)"), std::string::npos);
  EXPECT_TRUE(parseArgs(P, {"--u=4294967295"}));
  EXPECT_EQ(U, UINT_MAX);
  EXPECT_TRUE(parseArgs(P, {"--u", "0x10"}));
  EXPECT_EQ(U, 16u);
}
