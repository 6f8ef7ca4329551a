#include "util/table.hpp"

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/error.hpp"

namespace lgg {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  LGG_CHECK(!header_.empty(), "TextTable requires at least one column");
}

TextTable& TextTable::new_row() {
  rows_.emplace_back();
  rows_.back().reserve(header_.size());
  return *this;
}

TextTable& TextTable::add(std::string cell) {
  LGG_CHECK(!rows_.empty(), "TextTable::add before new_row");
  LGG_CHECK(rows_.back().size() < header_.size(),
            "TextTable row has more cells than header columns ("
                << header_.size() << ")");
  rows_.back().push_back(std::move(cell));
  return *this;
}

TextTable& TextTable::add(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return add(os.str());
}

TextTable& TextTable::add(std::uint64_t value) {
  return add(std::to_string(value));
}

TextTable& TextTable::add(std::int64_t value) {
  return add(std::to_string(value));
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < header_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string{};
      os << std::left << std::setw(static_cast<int>(width[c])) << cell;
      if (c + 1 < header_.size()) os << "  ";
    }
    os << '\n';
  };

  emit_row(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c)
    total += width[c] + (c + 1 < width.size() ? 2 : 0);
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
}

std::string format_bytes(std::uint64_t bytes) {
  static constexpr const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double value = static_cast<double>(bytes);
  int unit = 0;
  while (value >= 1024.0 && unit < 4) {
    value /= 1024.0;
    ++unit;
  }
  std::ostringstream os;
  os << std::fixed << std::setprecision(unit == 0 ? 0 : 2) << value << ' '
     << kUnits[unit];
  return os.str();
}

std::string format_seconds(double seconds) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3);
  if (seconds >= 1.0)
    os << seconds << " s";
  else if (seconds >= 1e-3)
    os << seconds * 1e3 << " ms";
  else
    os << seconds * 1e6 << " us";
  return os.str();
}

}  // namespace lgg
