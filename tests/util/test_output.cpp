#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "util/cli.h"
#include "util/csv.h"
#include "util/expects.h"
#include "util/table.h"

namespace ssplane {
namespace {

TEST(Csv, HeaderAndRows)
{
    std::ostringstream out;
    csv_writer csv(out, {"a", "b"});
    csv.row({1.0, 2.5});
    csv.row({3.0, -4.0});
    EXPECT_EQ(out.str(), "a,b\n1,2.5\n3,-4\n");
    EXPECT_EQ(csv.rows_written(), 2u);
}

TEST(Csv, RowWidthMismatchThrows)
{
    std::ostringstream out;
    csv_writer csv(out, {"a", "b"});
    EXPECT_THROW(csv.row({1.0}), contract_violation);
    EXPECT_THROW(csv.row_text({"x", "y", "z"}), contract_violation);
}

TEST(Csv, EscapesTextCellsPerRfc4180)
{
    EXPECT_EQ(csv_escape("plain"), "plain");
    EXPECT_EQ(csv_escape("São Paulo"), "São Paulo");
    EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
    EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csv_escape("two\nlines"), "\"two\nlines\"");

    std::ostringstream out;
    csv_writer csv(out, {"name", "v"});
    csv.row_text({"attack, 2 planes", "1"});
    EXPECT_EQ(out.str(), "name,v\n\"attack, 2 planes\",1\n");
}

TEST(Csv, FormatNumberCompact)
{
    EXPECT_EQ(format_number(1.0), "1");
    EXPECT_EQ(format_number(0.5), "0.5");
    EXPECT_EQ(format_number(1e9, 4), "1e+09");
    EXPECT_EQ(format_number(std::nan("")), "nan");
}

TEST(Table, AlignsColumns)
{
    table_printer t({"name", "value"});
    t.row({"x", "1"});
    t.row_numeric({2.0, 34.5});
    std::ostringstream out;
    t.print(out);
    const std::string s = out.str();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("34.5"), std::string::npos);
    // Header, separator and two rows.
    EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(Cli, ParsesOptionsAndPositional)
{
    const char* argv[] = {"prog", "--alpha=1.5", "--flag", "input.txt", "--name=x"};
    cli_args args(5, argv);
    EXPECT_TRUE(args.has("alpha"));
    EXPECT_TRUE(args.has("flag"));
    EXPECT_FALSE(args.has("missing"));
    EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0), 1.5);
    EXPECT_EQ(args.get("name", ""), "x");
    EXPECT_EQ(args.get_double("missing", 7.0), 7.0);
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional()[0], "input.txt");
}

TEST(Cli, RejectsMalformedNumbers)
{
    const char* argv[] = {"prog", "--a=abc", "--sweep-step=30m", "--bandwidth=1O",
                          "--empty=", "--ok=-2.5e3"};
    cli_args args(6, argv);
    for (const char* name : {"a", "sweep-step", "bandwidth"})
        EXPECT_THROW(args.get_double(name, 1.0), contract_violation) << name;
    try {
        args.get_double("sweep-step", 1.0);
        FAIL() << "a trailing unit should not parse";
    } catch (const contract_violation& e) {
        EXPECT_NE(std::string(e.what()).find("--sweep-step=30m"), std::string::npos);
    }
    // An absent or empty flag still falls back; a whole number parses.
    EXPECT_EQ(args.get_double("missing", 2.5), 2.5);
    EXPECT_EQ(args.get_double("empty", 2.5), 2.5);
    EXPECT_EQ(args.get_double("ok", 0.0), -2500.0);
}

TEST(Expects, ThrowsWithMessage)
{
    try {
        expects(false, "my message");
        FAIL() << "expects should have thrown";
    } catch (const contract_violation& e) {
        EXPECT_STREQ(e.what(), "my message");
    }
    EXPECT_NO_THROW(expects(true));
    EXPECT_THROW(ensures(false), contract_violation);
}

} // namespace
} // namespace ssplane
