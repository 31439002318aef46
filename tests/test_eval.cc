#include "eval/experiment.h"
#include "eval/table_printer.h"

#include <algorithm>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

namespace mbb {
namespace {

TEST(TablePrinter, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"longer-name", "22"});
  std::ostringstream out;
  table.Print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("longer-name"), std::string::npos);
  EXPECT_NE(text.find("----"), std::string::npos);
  // Four lines: header, separator, two rows.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
}

TEST(TablePrinter, PadsMissingCells) {
  TablePrinter table({"a", "b", "c"});
  table.AddRow({"only-one"});
  std::ostringstream out;
  table.Print(out);
  EXPECT_NE(out.str().find("only-one"), std::string::npos);
}

TEST(FormatSeconds, Formats) {
  EXPECT_EQ(FormatSeconds(0.8539), "0.854");
  EXPECT_EQ(FormatSeconds(123.456), "123.5");
  EXPECT_EQ(FormatSeconds(5.0, /*timed_out=*/true), "-");
}

TEST(WallTimer, MeasuresElapsed) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(timer.Seconds(), 0.009);
  timer.Reset();
  EXPECT_LT(timer.Seconds(), 0.009);
}

TEST(ParseBenchArgs, Defaults) {
  const BenchConfig config = ParseBenchArgs(1, nullptr);
  EXPECT_FALSE(config.full);
  EXPECT_DOUBLE_EQ(config.timeout_seconds, 60.0);
  EXPECT_DOUBLE_EQ(config.EffectiveScale(0.1), 0.1);
}

TEST(ParseBenchArgs, ParsesFlags) {
  const char* argv[] = {"bench", "--full", "--timeout", "5", "--scale",
                        "0.25"};
  const BenchConfig config = ParseBenchArgs(6, const_cast<char**>(argv));
  EXPECT_TRUE(config.full);
  EXPECT_DOUBLE_EQ(config.timeout_seconds, 5.0);
  EXPECT_DOUBLE_EQ(config.EffectiveScale(0.1), 0.25);
}

TEST(ParseBenchArgs, FullImpliesScaleOne) {
  const char* argv[] = {"bench", "--full"};
  const BenchConfig config = ParseBenchArgs(2, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(config.EffectiveScale(0.1), 1.0);
}

TEST(ParseBenchArgs, RejectsMalformedAndMissingValues) {
  const char* junk_timeout[] = {"bench", "--timeout", "junk"};
  EXPECT_EXIT(ParseBenchArgs(3, const_cast<char**>(junk_timeout)),
              ::testing::ExitedWithCode(1), "--timeout expects");
  const char* junk_scale[] = {"bench", "--scale", "0.5x"};
  EXPECT_EXIT(ParseBenchArgs(3, const_cast<char**>(junk_scale)),
              ::testing::ExitedWithCode(1), "--scale expects");
  const char* trailing[] = {"bench", "--full", "--timeout"};
  EXPECT_EXIT(ParseBenchArgs(3, const_cast<char**>(trailing)),
              ::testing::ExitedWithCode(1), "missing value for --timeout");
}

TEST(ParseFlagNumber, AcceptsOnlyWholeInRangeValues) {
  EXPECT_EQ(ParseFlagNumber<double>("--timeout", "2.5", 0.0, 1e9).value_or(0),
            2.5);
  EXPECT_EQ(
      ParseFlagNumber<std::uint32_t>("--spawn-depth", "4", 0, 20).value_or(0),
      4u);
  EXPECT_FALSE(ParseFlagNumber<std::uint32_t>("--spawn-depth", "-1", 0, 20));
  EXPECT_FALSE(ParseFlagNumber<std::uint32_t>("--spawn-depth", "21", 0, 20));
  EXPECT_FALSE(ParseFlagNumber<std::uint32_t>("--threads", "4x", 1, 64));
  EXPECT_FALSE(ParseFlagNumber<double>("--scale", "", 1e-6, 1e3));
  EXPECT_FALSE(ParseFlagNumber<double>("--scale", "nan", 1e-6, 1e3));
  EXPECT_FALSE(ParseFlagNumber<double>("--timeout", "inf", 0.0, 1e9));
}

}  // namespace
}  // namespace mbb
