#include "support/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace klex::support {
namespace {

TEST(Table, RendersHeaderAndRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"beta", "22"});
  std::string out = t.to_string();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 2u);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, RejectsEmptySchema) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, NumericCellFormatting) {
  EXPECT_EQ(Table::cell(42), "42");
  EXPECT_EQ(Table::cell(static_cast<std::int64_t>(-7)), "-7");
  EXPECT_EQ(Table::cell(3.14159, 2), "3.14");
  EXPECT_EQ(Table::cell(3.14159, 4), "3.1416");
}

TEST(Table, PrintIncludesTitle) {
  Table t({"c"});
  t.add_row({"v"});
  std::ostringstream out;
  t.print(out, "My Table");
  EXPECT_NE(out.str().find("My Table"), std::string::npos);
}

}  // namespace
}  // namespace klex::support
