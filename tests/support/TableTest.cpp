//===- tests/support/TableTest.cpp - Table unit tests ---------------------===//

#include "support/Table.h"
#include "support/Format.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace ddm;

TEST(TableTest, CellsRoundTrip) {
  Table T({"a", "b", "c"});
  T.row().cell("x").cell(uint64_t(7)).cell(3.14159, 2);
  EXPECT_EQ(T.numRows(), 1u);
  EXPECT_EQ(T.numColumns(), 3u);
  EXPECT_EQ(T.at(0, 0), "x");
  EXPECT_EQ(T.at(0, 1), "7");
  EXPECT_EQ(T.at(0, 2), "3.14");
}

TEST(TableTest, PercentCellSign) {
  Table T({"v"});
  T.row().percentCell(4.05);
  T.row().percentCell(-27.2);
  // 4.05 is not exactly representable; printf rounds the stored 4.0499...
  EXPECT_EQ(T.at(0, 0), "+4.0%");
  EXPECT_EQ(T.at(1, 0), "-27.2%");
}

TEST(TableTest, AsciiAlignment) {
  Table T({"name", "x"});
  T.row().cell("longvalue").cell("1");
  T.row().cell("s").cell("22");
  std::string Text = T.renderAscii();
  // Header, separator, two rows.
  int Lines = 0;
  for (char C : Text)
    if (C == '\n')
      ++Lines;
  EXPECT_EQ(Lines, 4);
  // The second column starts at the same offset in both data rows.
  size_t HeaderEnd = Text.find('\n');
  size_t SepEnd = Text.find('\n', HeaderEnd + 1);
  std::string Row1 = Text.substr(SepEnd + 1, Text.find('\n', SepEnd + 1) - SepEnd - 1);
  EXPECT_EQ(Row1.find('1'), std::string("longvalue  ").size());
}

TEST(TableTest, CsvEscaping) {
  Table T({"a", "b"});
  T.row().cell("plain").cell("with,comma");
  T.row().cell("with\"quote").cell("x");
  std::string Csv = T.renderCsv();
  EXPECT_NE(Csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(Csv.find("\"with\"\"quote\""), std::string::npos);
  EXPECT_NE(Csv.find("a,b\n"), std::string::npos);
}

TEST(TableTest, IntCellTypes) {
  Table T({"a"});
  T.row().cell(int64_t(-5));
  T.row().cell(42);
  T.row().cell(7u);
  EXPECT_EQ(T.at(0, 0), "-5");
  EXPECT_EQ(T.at(1, 0), "42");
  EXPECT_EQ(T.at(2, 0), "7");
}

TEST(TableTest, CsvQuotesCarriageReturn) {
  Table T({"trace", "n"});
  T.row().cell("dir\rname.ddmtrc").cell(1);
  EXPECT_EQ(T.renderCsv(), "trace,n\n\"dir\rname.ddmtrc\",1\n");
}

/// Renders \p T's rows through writeJson() into a fresh document.
static std::string jsonOf(const Table &T) {
  JsonWriter J;
  T.writeJson(J);
  return J.str();
}

TEST(TableTest, JsonKeepsValueTypes) {
  Table T({"s", "u", "i", "d", "p", "b", "q"},
          {"s", "u", "i", "d", "p", "b", "q"});
  T.row()
      .cell("a \"quoted\"\nline")
      .cell(uint64_t(18446744073709551615ull))
      .cell(-5)
      .cell(3.14159265358979, 2)
      .percentCell(4.05)
      .cell(true)
      .cell(2.0 / 3.0, 0);
  // The text keeps its precision; the JSON is the value at %.10g.
  EXPECT_EQ(T.at(0, 3), "3.14");
  EXPECT_EQ(T.at(0, 4), "+4.0%");
  EXPECT_EQ(T.at(0, 5), "true");
  EXPECT_EQ(jsonOf(T), "[{\"s\":\"a \\\"quoted\\\"\\nline\","
                       "\"u\":18446744073709551615,\"i\":-5,"
                       "\"d\":3.141592654,\"p\":4.05,\"b\":true,"
                       "\"q\":0.6666666667}]");
}

TEST(TableTest, JsonMatchesJsonWriterNumbers) {
  // Every cell type writes exactly what JsonWriter::value() writes for
  // the same value, including null for non-finite doubles.
  Table T({"a", "b", "c", "d"}, {"a", "b", "c", "d"});
  T.row().cell(NAN).cell(INFINITY, 1).cell(1e-300).cell(false);
  JsonWriter Expected;
  Expected.beginArray()
      .beginObject()
      .field("a", static_cast<double>(NAN))
      .field("b", static_cast<double>(INFINITY))
      .field("c", 1e-300)
      .field("d", false)
      .endObject()
      .endArray();
  EXPECT_EQ(jsonOf(T), Expected.str());
  EXPECT_EQ(jsonOf(T), "[{\"a\":null,\"b\":null,\"c\":1e-300,"
                       "\"d\":false}]");
}

TEST(TableTest, BytesCellKeepsTheCount) {
  Table T({"exact", "mean"}, {"exact", "mean"});
  T.row().bytesCell(uint64_t(3 * 1024 * 1024 + 512 * 1024)).bytesCell(2048.75);
  EXPECT_EQ(T.at(0, 0), "3.5 MiB");
  EXPECT_EQ(T.at(0, 1), "2.0 KiB");
  EXPECT_EQ(jsonOf(T), "[{\"exact\":3670016,\"mean\":2048.75}]");
}

TEST(TableTest, TextOnlyAndJsonOnlyColumns) {
  // "name" is text-only, "id" JSON-only, "v" in both.
  Table T({"name", "", "v"}, {"", "id", "v"});
  T.row().cell("region-based").cell("region").cell(1.5, 1);
  T.row().cell("x").cell("x").cell(22.0, 1);
  EXPECT_EQ(T.renderAscii(), "name          v\n"
                             "------------------\n"
                             "region-based  1.5\n"
                             "x             22.0\n");
  EXPECT_EQ(T.renderCsv(), "name,v\nregion-based,1.5\nx,22.0\n");
  EXPECT_EQ(jsonOf(T), "[{\"id\":\"region\",\"v\":1.5},"
                       "{\"id\":\"x\",\"v\":22}]");
}

TEST(TableTest, KeylessTableHasEmptyObjects) {
  Table T({"a"});
  T.row().cell(1);
  EXPECT_EQ(jsonOf(T), "[{}]");
}

TEST(TableTest, EmptyTableIsAnEmptyArray) {
  Table T({"a", "b"}, {"a", "b"});
  EXPECT_EQ(jsonOf(T), "[]");
  EXPECT_EQ(T.renderCsv(), "a,b\n");
}

TEST(TableTest, JsonRowRangesAndSingleRows) {
  Table T({"k"}, {"k"});
  for (int I = 0; I < 4; ++I)
    T.row().cell(I);
  JsonWriter J;
  T.writeJson(J, 1, 3);
  EXPECT_EQ(J.str(), "[{\"k\":1},{\"k\":2}]");
  JsonWriter Tail;
  T.writeJson(Tail, 3);
  EXPECT_EQ(Tail.str(), "[{\"k\":3}]");
  JsonWriter One;
  One.beginObject().key("first");
  T.writeJsonRow(One, 0);
  One.endObject();
  EXPECT_EQ(One.str(), "{\"first\":{\"k\":0}}");
}

TEST(FormatTest, Bytes) {
  EXPECT_EQ(formatBytes(512), "512 B");
  EXPECT_EQ(formatBytes(2048), "2.0 KiB");
  EXPECT_EQ(formatBytes(3 * 1024 * 1024 + 512 * 1024), "3.5 MiB");
}
