// Plain-text tables for the benchmark harnesses.
//
// Every bench binary prints the rows/series of one paper table or figure.
// TextTable renders aligned monospace tables (like the paper's tables).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace lgg {

/// A simple column-aligned text table.  Cells are strings; numeric
/// convenience overloads format with sensible defaults.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Begin a new row.  Subsequent add() calls fill it left to right.
  TextTable& new_row();

  TextTable& add(std::string cell);
  TextTable& add(const char* cell) { return add(std::string(cell)); }
  TextTable& add(double value, int precision = 3);
  TextTable& add(std::uint64_t value);
  TextTable& add(std::int64_t value);
  TextTable& add(int value) { return add(static_cast<std::int64_t>(value)); }

  /// Render as an aligned monospace table with a rule under the header.
  void print(std::ostream& os) const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a byte count with binary units ("4.00 GiB").
std::string format_bytes(std::uint64_t bytes);

/// Format seconds adaptively ("1.23 s", "4.56 ms", "789 us").
std::string format_seconds(double seconds);

}  // namespace lgg
