// The number codec (util/number.hpp) and every text input routed through
// it: one table of spellings the reader must reject, and one table of
// entry points whose error must name the field and the offending text.

#include "util/number.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>
#include <string>

#include "core/workflow.hpp"
#include "ft/fault_log.hpp"
#include "model/expr.hpp"
#include "model/serialize.hpp"
#include "util/args.hpp"
#include "util/config.hpp"
#include "verify/scenario.hpp"

namespace ftbesst {
namespace {

TEST(NumberCodec, RejectsEveryMalformedSpelling) {
  for (const char* bad : {"", " 1", "1 ", "+1", "3x", "2.5e", "0x10", "nan",
                          "inf", "-inf", "1e400", "1,5", "--1"}) {
    EXPECT_FALSE(util::try_parse_number<double>(bad)) << "'" << bad << "'";
    EXPECT_FALSE(util::try_parse_number<std::int64_t>(bad))
        << "'" << bad << "'";
  }
  for (const char* bad : {"1.5", "1e3", "9223372036854775808",
                          "-9223372036854775809"})
    EXPECT_FALSE(util::try_parse_number<std::int64_t>(bad)) << bad;
  EXPECT_FALSE(util::try_parse_number<std::uint64_t>("-1"));
  EXPECT_FALSE(util::try_parse_number<std::uint64_t>("18446744073709551616"));
  EXPECT_FALSE(util::try_parse_number<int>("2147483648"));
  EXPECT_FALSE(util::try_parse_number<std::uint16_t>("65536"));
}

TEST(NumberCodec, AcceptsWholeNumbersAtTheirLimits) {
  EXPECT_EQ(util::parse_number<double>("1e3", "x"), 1000.0);
  EXPECT_EQ(util::parse_number<double>("-0.5", "x"), -0.5);
  EXPECT_EQ(util::parse_number<double>(".5", "x"), 0.5);
  EXPECT_EQ(util::parse_number<std::int64_t>("-9223372036854775808", "x"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(util::parse_number<std::uint64_t>("18446744073709551615", "x"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(util::parse_number<std::uint16_t>("65535", "x"), 65535);
}

TEST(NumberCodec, ErrorNamesTheFieldAndTheText) {
  try {
    (void)util::parse_number<std::int64_t>("3x", "[run] samples");
    FAIL() << "accepted '3x'";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "[run] samples expects an integer, got '3x'");
  }
  try {
    (void)util::parse_number<double>("nan", "flag --mtbf");
    FAIL() << "accepted 'nan'";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "flag --mtbf expects a number, got 'nan'");
  }
}

TEST(NumberCodec, ShortestFormReadsBackToTheSameBits) {
  EXPECT_EQ(util::format_double(0.1), "0.1");
  EXPECT_EQ(util::format_double(1234567.25), "1234567.25");
  for (const double v : {0.1, -0.0, 1.0 / 3.0, 6.02214076e23, 5e-324,
                         std::numeric_limits<double>::max(),
                         -2.2250738585072014e-308}) {
    const double back = util::parse_number<double>(util::format_double(v), "v");
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(v))
        << util::format_double(v);
  }
}

// Each routed text input, fed a malformed number, must throw
// std::invalid_argument whose message names the field and the text.
struct RoutedCase {
  const char* input;   ///< which entry point and what it is fed
  const char* field;   ///< the message must name this field...
  const char* text;    ///< ...and quote this text
  std::function<void()> parse;
};

TEST(NumberCodec, EveryRoutedInputNamesFieldAndText) {
  const auto config = [](const char* value, bool integer) {
    return [value, integer] {
      const util::Config cfg =
          util::Config::parse(std::string("[run]\nn = ") + value + "\n");
      if (integer)
        (void)cfg.get_int("run", "n", 0);
      else
        (void)cfg.get_double("run", "n", 0.0);
    };
  };
  const auto model = [](const char* body) {
    return [body] {
      (void)model::model_from_string(std::string("ftbesst-model v1\n") + body);
    };
  };
  const auto sexpr = [](const char* text) {
    return [text] { (void)model::Expr::from_sexpr(text); };
  };
  const auto dataset = [](const char* row) {
    return [row] {
      std::istringstream is(std::string("x,sample\n") + row + "\n");
      (void)model::load_dataset(is);
    };
  };
  const auto scenario = [](const char* line) {
    return [line] {
      (void)verify::Scenario::from_text(
          std::string("ftbesst-scenario v1\n") + line + "\n");
    };
  };
  const auto faultlog = [](const char* record) {
    return [record] {
      (void)ft::FaultLog::from_text(std::string("ftbesst-faultlog v1\n") +
                                    record + "\n");
    };
  };
  const auto flag = [](const char* value) {
    return [value] {
      const char* argv[] = {"prog", "--nodes", value};
      (void)util::ArgParser(3, argv).get_int("nodes", 0);
    };
  };

  const RoutedCase cases[] = {
      {"config int trailing", "[run] n", "3x", config("3x", true)},
      {"config double hex", "[run] n", "0x10", config("0x10", false)},
      {"config double cut exponent", "[run] n", "2.5e", config("2.5e", false)},
      {"config double nan", "[run] n", "nan", config("nan", false)},
      {"sexpr const trailing", "const", "1.5abc", sexpr("(const 1.5abc)")},
      {"sexpr var trailing", "var index", "2x", sexpr("(var 2x)")},
      {"sexpr var past 16 bits", "var index", "70000", sexpr("(var 70000)")},
      {"model constant trailing", "constant value", "3.5x",
       model("constant 3.5x\n")},
      {"model leftover token", "at the end of a model line", "extra",
       model("constant 3.5 extra\n")},
      {"model powerlaw count", "powerlaw exponent count", "1.5",
       model("powerlaw 2 1.5 0.5\n")},
      {"model feature weight", "feature weight", "0x1",
       model("featuremodel polynomial 1 8\n1 2 3 4 5 6 7 0x1\n")},
      {"dataset cell cut exponent", "dataset cell", "2.5e",
       dataset("1,2.5e")},
      {"dataset cell hex", "dataset cell", "0x10", dataset("0x10,1")},
      {"scenario int trailing", "trials", "3x", scenario("trials 3x")},
      {"scenario int overflow", "trials", "4294967297",
       scenario("trials 4294967297")},
      {"scenario double inf", "kernel_cost", "inf",
       scenario("kernel_cost inf")},
      {"faultlog time trailing", "time", "1.5x",
       faultlog("0 1.5x 3 crash 0 1 0 0")},
      {"faultlog kind", "failure kind", "bogus",
       faultlog("0 1.5 3 bogus 0 1 0 0")},
      {"cli flag plus sign", "flag --nodes", "+4", flag("+4")},
      {"cli flag leading space", "flag --nodes", " 4", flag(" 4")},
      {"plan period trailing", "bad plan entry", "L1:4x",
       [] { (void)core::parse_plan("L1:4x"); }},
  };
  for (const RoutedCase& c : cases) {
    try {
      c.parse();
      ADD_FAILURE() << c.input << ": accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(c.field), std::string::npos)
          << c.input << ": " << what;
      EXPECT_NE(what.find(std::string("'") + c.text + "'"), std::string::npos)
          << c.input << ": " << what;
    } catch (const std::exception& e) {
      ADD_FAILURE() << c.input << ": threw a non-invalid_argument: "
                    << e.what();
    }
  }
}

}  // namespace
}  // namespace ftbesst
