//===- support/Table.h - ASCII, CSV and JSON table rendering ---*- C++ -*-===//
///
/// \file
/// A small table builder used by every experiment driver to print the rows
/// the paper's tables and figures report. A driver writes each result row
/// once; the table renders it as aligned ASCII (for the terminal), as CSV
/// (for plotting), or as an array of JSON objects for --json.
///
/// Every column has a text header and an optional JSON key. A column with
/// no key is text-only; a column with an empty header is JSON-only. Each
/// cell keeps its typed value next to its rendered text, so the JSON form
/// of "3.14" (a double printed at precision 2) is the full double, and a
/// formatBytes() cell is the exact byte count.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_SUPPORT_TABLE_H
#define DDM_SUPPORT_TABLE_H

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace ddm {

class JsonWriter;

/// Column-aligned table with a header row.
class Table {
public:
  /// \p Header names the text columns. \p JsonKeys, when given, holds one
  /// key per column; an empty key keeps that column out of the JSON and an
  /// empty header keeps it out of the text.
  explicit Table(std::vector<std::string> Header,
                 std::vector<std::string> JsonKeys = {});

  /// Starts a new row; subsequent cell() calls fill it left to right.
  Table &row();

  /// Appends a cell to the current row.
  Table &cell(const std::string &Value);
  Table &cell(const char *Value);
  Table &cell(double Value, unsigned Precision = 2);
  Table &cell(uint64_t Value);
  Table &cell(int64_t Value);
  Table &cell(int Value);
  Table &cell(unsigned Value);
  Table &cell(bool Value);

  /// Convenience: formats \p Value as a signed percentage ("+4.0%").
  Table &percentCell(double Value, unsigned Precision = 1);

  /// A byte count as formatBytes() text ("2.0 KiB"); the JSON value is
  /// \p Bytes itself.
  Table &bytesCell(uint64_t Bytes);
  Table &bytesCell(double Bytes);

  size_t numRows() const { return Rows.size(); }
  size_t numColumns() const { return Header.size(); }

  /// Returns the text of the cell at (\p Row, \p Col); both must be in
  /// range.
  const std::string &at(size_t Row, size_t Col) const;

  /// Renders the table as aligned ASCII with a separator under the header.
  std::string renderAscii() const;

  /// Renders the table as CSV (quoting cells that contain commas, quotes
  /// or line breaks).
  std::string renderCsv() const;

  /// Appends rows [\p Begin, \p End) to \p J as an array of objects, one
  /// member per keyed column in column order.
  void writeJson(JsonWriter &J, size_t Begin = 0,
                 size_t End = SIZE_MAX) const;

  /// Appends row \p Row to \p J as one object.
  void writeJsonRow(JsonWriter &J, size_t Row) const;

private:
  using JsonValue =
      std::variant<std::string, uint64_t, int64_t, double, bool>;
  /// Rendered text and typed value.
  using Cell = std::pair<std::string, JsonValue>;

  Table &addCell(std::string Text, JsonValue Value);
  /// The header and every row, cut down to the text columns.
  std::vector<std::vector<std::string>> textRows() const;

  std::vector<std::string> Header;
  std::vector<std::string> Keys;
  std::vector<std::vector<Cell>> Rows;
};

} // namespace ddm

#endif // DDM_SUPPORT_TABLE_H
