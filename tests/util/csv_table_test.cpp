#include <gtest/gtest.h>

#include <sstream>

#include "util/csv.h"
#include "util/table.h"

namespace capman::util {
namespace {

TEST(Csv, EscapePlain) { EXPECT_EQ(csv_escape("abc"), "abc"); }

TEST(Csv, EscapeComma) { EXPECT_EQ(csv_escape("a,b"), "\"a,b\""); }

TEST(Csv, EscapeQuote) { EXPECT_EQ(csv_escape("a\"b"), "\"a\"\"b\""); }

TEST(Csv, EscapeNewline) { EXPECT_EQ(csv_escape("a\nb"), "\"a\nb\""); }

TEST(Csv, HeaderAndRows) {
  std::ostringstream os;
  CsvWriter w{os};
  w.header({"t", "v"});
  w.row({1.0, 2.5});
  w.cell("x").cell(3.0);
  w.end_row();
  EXPECT_EQ(os.str(), "t,v\n1,2.5\nx,3\n");
}

TEST(Csv, MixedCellTypes) {
  std::ostringstream os;
  CsvWriter w{os};
  w.cell(std::size_t{7}).cell(static_cast<long long>(-3)).cell("s");
  w.end_row();
  EXPECT_EQ(os.str(), "7,-3,s\n");
}

TEST(Csv, FileConstructorThrowsOnBadPath) {
  EXPECT_THROW(CsvWriter{std::string{"/nonexistent/dir/x.csv"}},
               std::runtime_error);
}

TEST(Table, FormatsAligned) {
  TextTable t{{"name", "value"}};
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22.50"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22.50"), std::string::npos);
  EXPECT_NE(out.find("name"), std::string::npos);
}

TEST(Table, NumericRowFormatting) {
  TextTable t{{"w", "a", "b"}};
  t.add_row("row", {1.2345, 2.0}, 2);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("1.23"), std::string::npos);
  EXPECT_NE(os.str().find("2.00"), std::string::npos);
}

TEST(Table, FormatHelper) {
  EXPECT_EQ(TextTable::format(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::format(2.0, 0), "2");
}

TEST(Table, SectionHeader) {
  std::ostringstream os;
  print_section(os, "Fig. 12");
  EXPECT_NE(os.str().find("Fig. 12"), std::string::npos);
}

}  // namespace
}  // namespace capman::util
