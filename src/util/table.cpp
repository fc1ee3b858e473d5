#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace bmh {

std::string format_double(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

std::string format_count(std::int64_t value) {
  std::string digits = std::to_string(value < 0 ? -value : value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3 + 1);
  const std::size_t lead = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - lead) % 3 == 0 && i >= lead) out.push_back(',');
    out.push_back(digits[i]);
  }
  if (value < 0) out.insert(out.begin(), '-');
  return out;
}

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  if (header_.empty()) throw std::invalid_argument("Table: empty header");
}

Table& Table::row() {
  cells_.emplace_back();
  cells_.back().reserve(header_.size());
  return *this;
}

Table& Table::add(const std::string& cell) {
  if (cells_.empty()) row();
  if (cells_.back().size() >= header_.size())
    throw std::logic_error("Table: row has more cells than header columns");
  cells_.back().push_back(cell);
  return *this;
}

Table& Table::add(const char* cell) { return add(std::string(cell)); }
Table& Table::add(double value, int precision) { return add(format_double(value, precision)); }
Table& Table::add(std::int64_t value) { return add(std::to_string(value)); }
Table& Table::add(int value) { return add(std::to_string(value)); }
Table& Table::add(std::size_t value) { return add(std::to_string(value)); }

void Table::print(std::ostream& os, const std::string& title) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& r : cells_)
    for (std::size_t c = 0; c < r.size(); ++c)
      width[c] = std::max(width[c], r[c].size());

  if (!title.empty()) os << title << '\n';
  auto print_row = [&](const std::vector<std::string>& r) {
    for (std::size_t c = 0; c < header_.size(); ++c) {
      const std::string& cell = c < r.size() ? r[c] : std::string();
      os << "  " << std::setw(static_cast<int>(width[c])) << cell;
    }
    os << '\n';
  };
  print_row(header_);
  std::size_t total = 0;
  for (auto w : width) total += w + 2;
  os << "  " << std::string(total > 2 ? total - 2 : 0, '-') << '\n';
  for (const auto& r : cells_) print_row(r);
}

} // namespace bmh
