#include "support/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "support/check.hpp"

namespace klex::support {

namespace {

bool looks_numeric(const std::string& s) {
  if (s.empty()) return false;
  std::size_t i = (s[0] == '-' || s[0] == '+') ? 1 : 0;
  if (i == s.size()) return false;
  for (; i < s.size(); ++i) {
    char c = s[i];
    if (!(std::isdigit(static_cast<unsigned char>(c)) || c == '.' ||
          c == 'e' || c == '-' || c == '+' || c == 'x')) {
      return false;
    }
  }
  return true;
}

}  // namespace

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  KLEX_REQUIRE(!headers_.empty(), "table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  KLEX_REQUIRE(cells.size() == headers_.size(), "row has ", cells.size(),
               " cells, expected ", headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::cell(std::int64_t v) { return std::to_string(v); }
std::string Table::cell(std::uint64_t v) { return std::to_string(v); }
std::string Table::cell(int v) { return std::to_string(v); }

std::string Table::cell(double v, int precision) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(precision) << v;
  return out.str();
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << (c == 0 ? "| " : " | ");
      bool right = looks_numeric(row[c]);
      std::size_t pad = widths[c] - row[c].size();
      if (right) out << std::string(pad, ' ') << row[c];
      else out << row[c] << std::string(pad, ' ');
    }
    out << " |\n";
  };
  emit_row(headers_);
  out << "|";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out << std::string(widths[c] + 2, '-') << "|";
  }
  out << "\n";
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

void Table::print(std::ostream& out, const std::string& title) const {
  if (!title.empty()) {
    out << "\n== " << title << " ==\n";
  }
  out << to_string();
  out.flush();
}

}  // namespace klex::support
