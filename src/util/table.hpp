#pragma once
/// \file table.hpp
/// \brief Aligned text tables for the benchmark harnesses.
///
/// Every bench section regenerates one of the paper's tables or figures; this
/// helper renders its rows as a human-readable aligned table (to stdout).

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace bmh {

/// A simple column-aligned table. Cells are strings; helpers format numbers.
class Table {
public:
  explicit Table(std::vector<std::string> header);

  /// Starts a new row; subsequent add() calls fill it left to right.
  Table& row();

  Table& add(const std::string& cell);
  Table& add(const char* cell);
  Table& add(double value, int precision = 3);
  Table& add(std::int64_t value);
  Table& add(int value);

  /// Renders with padded columns, a header rule, and optional title.
  void print(std::ostream& os, const std::string& title = "") const;

  [[nodiscard]] std::size_t rows() const noexcept { return cells_.size(); }
  [[nodiscard]] const std::vector<std::string>& header() const noexcept { return header_; }

private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> cells_;
};

/// Formats a double with fixed precision (shared by Table and ad-hoc output).
std::string format_double(double value, int precision);

/// Formats 12345678 as "12,345,678" for readability in instance listings.
std::string format_count(std::int64_t value);

} // namespace bmh
