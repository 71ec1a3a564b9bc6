// Strict command-line number parsing (src/util/parse_number.hpp): the whole
// text must be one in-range number, or the error names the flag.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/parse_number.hpp"

namespace cid {
namespace {

std::string error_of(auto parse) {
  try {
    parse();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "(no error)";
}

TEST(ParseNumber, AcceptsWholeNumbers) {
  EXPECT_EQ(parse_number<int>("--trials", "3"), 3);
  EXPECT_EQ(parse_number<int>("--threads", "-1"), -1);
  EXPECT_EQ(parse_number<std::int64_t>("--rounds", "9000000000"),
            9'000'000'000);
  EXPECT_EQ(parse_number<std::uint64_t>("--seed", "18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_number<std::uint16_t>("--port", "65535"), 65535);
  EXPECT_EQ(parse_number<double>("--lambda", "0.25"), 0.25);
  EXPECT_EQ(parse_number<double>("--lambda", ".5"), 0.5);
  EXPECT_EQ(parse_number<double>("--watchdog", "1e-3"), 1e-3);
}

TEST(ParseNumber, RejectsTrailingJunk) {
  EXPECT_EQ(error_of([] { parse_number<int>("--trials", "3abc"); }),
            "--trials: expected an integer, got '3abc'");
  EXPECT_EQ(error_of([] { parse_number<double>("--lambda", "0.5x"); }),
            "--lambda: expected a number, got '0.5x'");
  EXPECT_EQ(error_of([] { parse_number<int>("--trials", "1e3"); }),
            "--trials: expected an integer, got '1e3'");
  EXPECT_EQ(error_of([] { parse_number<int>("--trials", " 3"); }),
            "--trials: expected an integer, got ' 3'");
  EXPECT_EQ(error_of([] { parse_number<int>("--trials", "+3"); }),
            "--trials: expected an integer, got '+3'");
}

TEST(ParseNumber, RejectsEmptyInput) {
  EXPECT_EQ(error_of([] { parse_number<int>("--trials", ""); }),
            "--trials: expected an integer, got ''");
  EXPECT_EQ(error_of([] { parse_number<double>("--lambda", ""); }),
            "--lambda: expected a number, got ''");
}

TEST(ParseNumber, RejectsOverflowAndSigns) {
  EXPECT_EQ(error_of([] { parse_number<int>("--trials", "4294967296"); }),
            "--trials: value out of range, got '4294967296'");
  EXPECT_EQ(error_of([] { parse_number<std::uint16_t>("--port", "70000"); }),
            "--port: value out of range, got '70000'");
  EXPECT_EQ(error_of([] { parse_number<std::uint64_t>("--seed", "-1"); }),
            "--seed: expected a non-negative integer, got '-1'");
  EXPECT_EQ(error_of([] { parse_number<double>("--lambda", "1e999"); }),
            "--lambda: value out of range, got '1e999'");
}

TEST(ParseNumber, RejectsNonFiniteDoubles) {
  EXPECT_EQ(error_of([] { parse_number<double>("--lambda", "nan"); }),
            "--lambda: expected a finite number, got 'nan'");
  EXPECT_EQ(error_of([] { parse_number<double>("--watchdog", "inf"); }),
            "--watchdog: expected a finite number, got 'inf'");
}

}  // namespace
}  // namespace cid
