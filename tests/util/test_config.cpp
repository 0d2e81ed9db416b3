#include "util/config.hpp"

#include <gtest/gtest.h>

namespace ftbesst::util {
namespace {

constexpr const char* kSample = R"(
# experiment description
[experiment]
app = lulesh        ; inline comment
epr = 15
ranks = 512
trials = 30
monte_carlo = true

[plan]
L1 = 40
L2 = 40

[faults]
mtbf_hours = 2.5
enabled = off
)";

TEST(Config, ParsesSectionsAndValues) {
  const Config cfg = Config::parse(kSample);
  EXPECT_EQ(cfg.sections(),
            (std::vector<std::string>{"experiment", "plan", "faults"}));
  EXPECT_EQ(cfg.get_string("experiment", "app", ""), "lulesh");
  EXPECT_EQ(cfg.get_int("experiment", "epr", 0), 15);
  EXPECT_EQ(cfg.get_int("experiment", "ranks", 0), 512);
  EXPECT_DOUBLE_EQ(cfg.get_double("faults", "mtbf_hours", 0.0), 2.5);
}

TEST(Config, KeysPreserveFileOrder) {
  const Config cfg = Config::parse(kSample);
  EXPECT_EQ(cfg.keys("plan"), (std::vector<std::string>{"L1", "L2"}));
  EXPECT_TRUE(cfg.keys("missing").empty());
}

TEST(Config, FallbacksWhenAbsent) {
  const Config cfg = Config::parse(kSample);
  EXPECT_EQ(cfg.get_int("experiment", "timesteps", 200), 200);
  EXPECT_EQ(cfg.get_string("nope", "x", "dflt"), "dflt");
  EXPECT_FALSE(cfg.get("plan", "L4").has_value());
}

TEST(Config, BooleanForms) {
  const Config cfg = Config::parse(kSample);
  EXPECT_TRUE(cfg.get_bool("experiment", "monte_carlo", false));
  EXPECT_FALSE(cfg.get_bool("faults", "enabled", true));
  EXPECT_TRUE(cfg.get_bool("faults", "missing", true));
}

TEST(Config, CommentsAndWhitespaceIgnored) {
  const Config cfg = Config::parse(
      "  [ s ]  \n  a=1 # x\n\n; whole-line comment\n  b =  2  \n");
  EXPECT_EQ(cfg.get_int("s", "a", 0), 1);
  EXPECT_EQ(cfg.get_int("s", "b", 0), 2);
}

TEST(Config, DuplicateKeysKeepLast) {
  const Config cfg = Config::parse("[s]\nx = 1\nx = 2\n");
  EXPECT_EQ(cfg.get_int("s", "x", 0), 2);
  EXPECT_EQ(cfg.keys("s").size(), 1u);
}

TEST(Config, MalformedInputThrows) {
  EXPECT_THROW((void)Config::parse("x = 1\n"), std::invalid_argument);
  EXPECT_THROW((void)Config::parse("[s\nx = 1\n"), std::invalid_argument);
  EXPECT_THROW((void)Config::parse("[]\n"), std::invalid_argument);
  EXPECT_THROW((void)Config::parse("[s]\njust a line\n"),
               std::invalid_argument);
  EXPECT_THROW((void)Config::parse("[s]\n= 1\n"), std::invalid_argument);
}

TEST(Config, TypeErrorsThrow) {
  const Config cfg = Config::parse("[s]\nn = abc\nb = maybe\n");
  EXPECT_THROW((void)cfg.get_int("s", "n", 0), std::invalid_argument);
  EXPECT_THROW((void)cfg.get_double("s", "n", 0.0), std::invalid_argument);
  EXPECT_THROW((void)cfg.get_bool("s", "b", false), std::invalid_argument);
}

}  // namespace
}  // namespace ftbesst::util
