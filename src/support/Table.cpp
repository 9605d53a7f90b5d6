//===- support/Table.cpp - ASCII, CSV and JSON table rendering -----------===//

#include "support/Table.h"
#include "support/Format.h"
#include "support/Json.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace ddm;

Table::Table(std::vector<std::string> Header, std::vector<std::string> JsonKeys)
    : Header(std::move(Header)), Keys(std::move(JsonKeys)) {
  assert(!this->Header.empty() && "a table needs at least one column");
  assert((Keys.empty() || Keys.size() == this->Header.size()) &&
         "one JSON key per column");
  Keys.resize(this->Header.size());
  for (size_t I = 0, E = Keys.size(); I != E; ++I)
    assert((!this->Header[I].empty() || !Keys[I].empty()) &&
           "a column needs a header or a JSON key");
}

Table &Table::row() {
  assert((Rows.empty() || Rows.back().size() == Header.size()) &&
         "previous row is incomplete");
  Rows.emplace_back();
  return *this;
}

Table &Table::addCell(std::string Text, JsonValue Value) {
  assert(!Rows.empty() && "call row() before cell()");
  assert(Rows.back().size() < Header.size() && "row has too many cells");
  Rows.back().emplace_back(std::move(Text), Value);
  return *this;
}

Table &Table::cell(const std::string &Value) { return addCell(Value, Value); }

Table &Table::cell(const char *Value) { return cell(std::string(Value)); }

Table &Table::cell(double Value, unsigned Precision) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.*f", Precision, Value);
  return addCell(Buffer, Value);
}

Table &Table::cell(uint64_t Value) {
  return addCell(std::to_string(Value), Value);
}

Table &Table::cell(int64_t Value) {
  return addCell(std::to_string(Value), Value);
}

Table &Table::cell(int Value) { return cell(static_cast<int64_t>(Value)); }

Table &Table::cell(unsigned Value) { return cell(static_cast<uint64_t>(Value)); }

Table &Table::cell(bool Value) {
  return addCell(Value ? "true" : "false", Value);
}

Table &Table::percentCell(double Value, unsigned Precision) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%+.*f%%", Precision, Value);
  return addCell(Buffer, Value);
}

Table &Table::bytesCell(uint64_t Bytes) {
  return addCell(formatBytes(Bytes), Bytes);
}

Table &Table::bytesCell(double Bytes) {
  return addCell(formatBytes(static_cast<uint64_t>(Bytes)), Bytes);
}

const std::string &Table::at(size_t Row, size_t Col) const {
  assert(Row < Rows.size() && Col < Rows[Row].size() && "cell out of range");
  return Rows[Row][Col].first;
}

std::vector<std::vector<std::string>> Table::textRows() const {
  std::vector<std::vector<std::string>> Out(Rows.size() + 1);
  for (size_t I = 0, E = Header.size(); I != E; ++I) {
    if (Header[I].empty())
      continue;
    Out[0].push_back(Header[I]);
    for (size_t R = 0, RE = Rows.size(); R != RE; ++R)
      if (I < Rows[R].size())
        Out[R + 1].push_back(Rows[R][I].first);
  }
  return Out;
}

std::string Table::renderAscii() const {
  const std::vector<std::vector<std::string>> TextRows = textRows();
  const std::vector<std::string> &Columns = TextRows[0];
  std::vector<size_t> Widths(Columns.size());
  for (const auto &Row : TextRows)
    for (size_t I = 0, E = Row.size(); I != E; ++I)
      if (Row[I].size() > Widths[I])
        Widths[I] = Row[I].size();

  auto RenderRow = [&](const std::vector<std::string> &Cells) {
    std::string Line;
    for (size_t I = 0, E = Columns.size(); I != E; ++I) {
      const std::string &Text = I < Cells.size() ? Cells[I] : std::string();
      Line += Text;
      if (I + 1 != E)
        Line.append(Widths[I] - Text.size() + 2, ' ');
    }
    // Trim trailing spaces.
    while (!Line.empty() && Line.back() == ' ')
      Line.pop_back();
    Line += '\n';
    return Line;
  };

  std::string Out = RenderRow(Columns);
  size_t SeparatorWidth = 0;
  for (size_t I = 0, E = Widths.size(); I != E; ++I)
    SeparatorWidth += Widths[I] + (I + 1 != E ? 2 : 0);
  Out.append(SeparatorWidth, '-');
  Out += '\n';
  for (size_t R = 1, E = TextRows.size(); R != E; ++R)
    Out += RenderRow(TextRows[R]);
  return Out;
}

static std::string csvEscape(const std::string &Text) {
  bool NeedsQuoting = Text.find_first_of(",\"\n\r") != std::string::npos;
  if (!NeedsQuoting)
    return Text;
  std::string Out = "\"";
  for (char C : Text) {
    if (C == '"')
      Out += '"';
    Out += C;
  }
  Out += '"';
  return Out;
}

std::string Table::renderCsv() const {
  std::string Out;
  for (const auto &Cells : textRows()) {
    for (size_t I = 0, E = Cells.size(); I != E; ++I) {
      if (I)
        Out += ',';
      Out += csvEscape(Cells[I]);
    }
    Out += '\n';
  }
  return Out;
}

void Table::writeJsonRow(JsonWriter &J, size_t Row) const {
  assert(Row < Rows.size() && "row out of range");
  const std::vector<Cell> &Cells = Rows[Row];
  J.beginObject();
  for (size_t I = 0, E = Cells.size(); I != E; ++I) {
    if (Keys[I].empty())
      continue;
    J.key(Keys[I]);
    std::visit([&J](const auto &V) { J.value(V); }, Cells[I].second);
  }
  J.endObject();
}

void Table::writeJson(JsonWriter &J, size_t Begin, size_t End) const {
  J.beginArray();
  for (size_t Row = Begin, E = std::min(End, Rows.size()); Row < E; ++Row)
    writeJsonRow(J, Row);
  J.endArray();
}
