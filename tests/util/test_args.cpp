#include "util/args.hpp"

#include <gtest/gtest.h>

namespace ftbesst::util {
namespace {

ArgParser parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> full{"prog"};
  full.insert(full.end(), argv.begin(), argv.end());
  return ArgParser(static_cast<int>(full.size()), full.data());
}

TEST(ArgParser, FlagsWithSeparateValues) {
  const auto args = parse({"--epr", "15", "--ranks", "512"});
  EXPECT_TRUE(args.has("epr"));
  EXPECT_EQ(args.get_int("epr", 0), 15);
  EXPECT_EQ(args.get_int("ranks", 0), 512);
  EXPECT_FALSE(args.has("timesteps"));
  EXPECT_EQ(args.get_int("timesteps", 200), 200);
}

TEST(ArgParser, EqualsSyntax) {
  const auto args = parse({"--method=symreg", "--seed=9"});
  EXPECT_EQ(args.get_string("method", ""), "symreg");
  EXPECT_EQ(args.get_int("seed", 0), 9);
}

TEST(ArgParser, PositionalArguments) {
  const auto args = parse({"calibrate", "--out", "dir", "extra"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "calibrate");
  EXPECT_EQ(args.positional()[1], "extra");
  EXPECT_EQ(args.get_string("out", ""), "dir");
}

TEST(ArgParser, DanglingFlagThrows) {
  EXPECT_THROW(parse({"--oops"}), std::invalid_argument);
}

TEST(ArgParser, TypeErrorsThrow) {
  const auto args = parse({"--n", "abc", "--x", "1.5"});
  EXPECT_THROW((void)args.get_int("n", 0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(args.get_double("x", 0.0), 1.5);
  EXPECT_THROW((void)args.get_double("n", 0.0), std::invalid_argument);
}

TEST(ArgParser, TrailingGarbageThrows) {
  const auto args = parse(
      {"--nodes", "512abc", "--mtbf", "24x", "--gap", "1 ", "--e", "1e3"});
  EXPECT_THROW((void)args.get_int("nodes", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("mtbf", 0.0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("gap", 0.0), std::invalid_argument);
  EXPECT_THROW((void)args.get_int("e", 0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(args.get_double("e", 0.0), 1000.0);
}

TEST(ArgParser, NumberListParsesEveryEntry) {
  const auto args = parse({"--ranks", "8,64,1e3"});
  EXPECT_EQ(args.get_number_list("ranks", ""),
            (std::vector<double>{8, 64, 1000}));
  EXPECT_EQ(args.get_number_list("eprs", "8,12"),
            (std::vector<double>{8, 12}));
  EXPECT_TRUE(args.get_number_list("none", "").empty());
}

TEST(ArgParser, NumberListErrorNamesFlagAndEntry) {
  for (const char* bad : {"8,abc", "8,64x", "8,1e400"}) {
    const auto args = parse({"--ranks", bad});
    try {
      (void)args.get_number_list("ranks", "");
      FAIL() << "expected invalid_argument for " << bad;
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      const std::string entry = std::string(bad).substr(2);
      EXPECT_NE(message.find("--ranks"), std::string::npos) << message;
      EXPECT_NE(message.find("'" + entry + "'"), std::string::npos)
          << message;
    }
  }
}

TEST(ArgParser, GetOptionalForm) {
  const auto args = parse({"--a", "1"});
  EXPECT_TRUE(args.get("a").has_value());
  EXPECT_FALSE(args.get("b").has_value());
}

TEST(ArgParser, SplitList) {
  EXPECT_EQ(ArgParser::split_list("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(ArgParser::split_list("single"),
            (std::vector<std::string>{"single"}));
  EXPECT_EQ(ArgParser::split_list(""), (std::vector<std::string>{}));
  EXPECT_EQ(ArgParser::split_list("a,,b"),
            (std::vector<std::string>{"a", "b"}));
}

TEST(ArgParser, MissingValueNamesTheFlag) {
  try {
    parse({"--trials"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--trials"), std::string::npos);
  }
}

TEST(ArgParser, ExpectKnownAcceptsValidFlags) {
  const auto args = parse({"--epr", "15", "--seed=9"});
  EXPECT_NO_THROW(args.expect_known({"epr", "seed", "trials"}));
}

TEST(ArgParser, ExpectKnownNamesUnknownFlagAndListsValidOnes) {
  const auto args = parse({"--eprs", "15"});
  try {
    args.expect_known({"epr", "seed", "trials"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("--eprs"), std::string::npos) << message;
    EXPECT_NE(message.find("--epr"), std::string::npos) << message;
    EXPECT_NE(message.find("--seed"), std::string::npos) << message;
    EXPECT_NE(message.find("--trials"), std::string::npos) << message;
    // --eprs is one edit from --epr: the error suggests it.
    EXPECT_NE(message.find("did you mean --epr?"), std::string::npos)
        << message;
  }
}

TEST(ArgParser, ExpectKnownSkipsSuggestionWhenNothingIsClose) {
  const auto args = parse({"--completely-different", "1"});
  try {
    args.expect_known({"epr", "seed"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).find("did you mean"), std::string::npos);
  }
}

}  // namespace
}  // namespace ftbesst::util
