// Unit tests for the measurement substrate: timer, statistics, reporter,
// CLI parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <thread>

#include "bench_support/cli.hpp"
#include "bench_support/reporter.hpp"
#include "bench_support/stats.hpp"
#include "bench_support/timer.hpp"

namespace {

TEST(WallTimer, MeasuresElapsedTime) {
  dsg::WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double ms = timer.milliseconds();
  EXPECT_GE(ms, 15.0);
  EXPECT_LT(ms, 2000.0);
  timer.reset();
  EXPECT_LT(timer.milliseconds(), 15.0);
}

TEST(Stats, SummarizeBasics) {
  auto s = dsg::summarize({3.0, 1.0, 2.0});
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.median, 2.0);
  EXPECT_NEAR(s.stddev, 1.0, 1e-12);
}

TEST(Stats, MedianEvenCount) {
  auto s = dsg::summarize({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(s.median, 2.5);
}

TEST(Stats, EmptyAndSingle) {
  auto e = dsg::summarize({});
  EXPECT_EQ(e.count, 0u);
  auto s = dsg::summarize({7.0});
  EXPECT_DOUBLE_EQ(s.median, 7.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Stats, GeometricMean) {
  EXPECT_DOUBLE_EQ(dsg::geometric_mean({1.0, 4.0}), 2.0);
  EXPECT_DOUBLE_EQ(dsg::geometric_mean({2.0, 0.0, 8.0}), 4.0);  // skips 0
  EXPECT_DOUBLE_EQ(dsg::geometric_mean({}), 0.0);
}

TEST(Stats, ArithmeticMean) {
  EXPECT_DOUBLE_EQ(dsg::arithmetic_mean({1.0, 2.0, 6.0}), 3.0);
  EXPECT_DOUBLE_EQ(dsg::arithmetic_mean({}), 0.0);
}

TEST(Reporter, AlignedTableContainsEverything) {
  dsg::TableReporter table("fig_x", "Fig X");
  table.set_header({"graph", "ms"});
  table.add_row({"grid", 1.25});
  table.add_row({"rmat-16", 330.1});
  table.add_footer("average 3.7x");
  std::ostringstream out;
  table.print(out);
  const auto s = out.str();
  EXPECT_NE(s.find("Fig X"), std::string::npos);
  EXPECT_NE(s.find("graph"), std::string::npos);
  EXPECT_NE(s.find("rmat-16"), std::string::npos);
  EXPECT_NE(s.find("330.1"), std::string::npos);
  EXPECT_NE(s.find("average 3.7x"), std::string::npos);
}

TEST(Reporter, JsonIsTyped) {
  dsg::TableReporter table("fig_x", "Fig X");
  table.set_header({"graph", "ms", "nodes", "speedup", "gap", "auto"});
  table.add_row({"a\"b\\c", 1.5, 42, std::numeric_limits<double>::infinity(),
                 std::nan(""), true});
  table.add_footer("footers are for humans");
  std::ostringstream out;
  table.print_json(out);
  EXPECT_EQ(out.str(),
            R"({"fig_x": [{"graph": "a\"b\\c", "ms": 1.5, "nodes": 42, )"
            R"("speedup": null, "gap": null, "auto": true}]})"
            "\n");
}

TEST(Reporter, FormatHelpers) {
  EXPECT_EQ(dsg::format_double(3.14159, 2), "3.14");
}

TEST(Cli, ParsesFlagsValuesAndPositionals) {
  const char* argv[] = {"prog",       "--verbose", "--delta", "2.5",
                        "--name=foo", "input.mtx", "--count", "7"};
  dsg::CliArgs args(8, const_cast<char**>(argv));
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_FALSE(args.has("quiet"));
  EXPECT_DOUBLE_EQ(args.get_double("delta", 0.0), 2.5);
  EXPECT_EQ(args.get("name"), "foo");
  EXPECT_EQ(args.get_int("count", 0), 7);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.mtx");
  EXPECT_EQ(args.program(), "prog");
}

TEST(Cli, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  dsg::CliArgs args(1, const_cast<char**>(argv));
  EXPECT_EQ(args.get("x", "dflt"), "dflt");
  EXPECT_EQ(args.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("d", 1.5), 1.5);
}

TEST(Cli, FlagBeforeAnotherFlagHasEmptyValue) {
  const char* argv[] = {"prog", "--a", "--b", "v"};
  dsg::CliArgs args(4, const_cast<char**>(argv));
  EXPECT_TRUE(args.has("a"));
  EXPECT_EQ(args.get("a", "x"), "");
  EXPECT_EQ(args.get("b"), "v");
}

}  // namespace
