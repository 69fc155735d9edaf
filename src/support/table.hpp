// Console table rendering for benchmark output.
//
// The benchmark binaries regenerate the paper's figures/theorems as tables
// ("who wins, by what factor, where crossovers fall"), so they need an
// aligned, reproducible plain-text table format. Cells are strings; the
// helpers format numbers with a fixed precision so output diffs cleanly.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace klex::support {

class Table {
 public:
  /// Creates a table with the given column headers.
  explicit Table(std::vector<std::string> headers);

  /// Appends a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Formats helpers for numeric cells.
  static std::string cell(std::int64_t v);
  static std::string cell(std::uint64_t v);
  static std::string cell(int v);
  static std::string cell(double v, int precision = 2);

  std::size_t rows() const { return rows_.size(); }
  std::size_t columns() const { return headers_.size(); }

  /// Renders with a header rule and right-aligned numeric-looking cells.
  std::string to_string() const;

  /// Prints `to_string()` to the stream, preceded by `title` if non-empty.
  void print(std::ostream& out, const std::string& title = "") const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace klex::support
