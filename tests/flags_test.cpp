#include <gtest/gtest.h>

#include "util/flags.h"

namespace mpcg {
namespace {

Flags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsSyntax) {
  const auto f = parse({"--n=42", "--family=gnp_dense"});
  EXPECT_EQ(f.get_int("n", 0), 42);
  EXPECT_EQ(f.get_string("family", ""), "gnp_dense");
}

TEST(Flags, SpaceSyntax) {
  const auto f = parse({"--n", "42", "--eps", "0.25"});
  EXPECT_EQ(f.get_int("n", 0), 42);
  EXPECT_DOUBLE_EQ(f.get_double("eps", 0.0), 0.25);
}

TEST(Flags, BareKeyIsTrue) {
  const auto f = parse({"--check", "--n=3"});
  EXPECT_TRUE(f.get_bool("check", false));
  EXPECT_TRUE(f.has("check"));
  EXPECT_FALSE(f.has("absent"));
}

TEST(Flags, DefaultsWhenAbsent) {
  const auto f = parse({});
  EXPECT_EQ(f.get_int("n", 7), 7);
  EXPECT_EQ(f.get_string("family", "x"), "x");
  EXPECT_FALSE(f.get_bool("check", false));
  EXPECT_DOUBLE_EQ(f.get_double("eps", 0.5), 0.5);
}

TEST(Flags, BoolParsing) {
  EXPECT_TRUE(parse({"--a=true"}).get_bool("a", false));
  EXPECT_TRUE(parse({"--a=1"}).get_bool("a", false));
  EXPECT_FALSE(parse({"--a=false"}).get_bool("a", true));
  EXPECT_FALSE(parse({"--a=0"}).get_bool("a", true));
  EXPECT_THROW((void)parse({"--a=yes"}).get_bool("a", false),
               std::invalid_argument);
}

TEST(Flags, RejectsMalformedTokens) {
  EXPECT_THROW(parse({"positional"}), std::invalid_argument);
  EXPECT_THROW(parse({"-n", "3"}), std::invalid_argument);
  EXPECT_THROW(parse({"--"}), std::invalid_argument);
}

TEST(Flags, RejectsBadNumbers) {
  EXPECT_THROW((void)parse({"--n=abc"}).get_int("n", 0),
               std::invalid_argument);
  EXPECT_THROW((void)parse({"--n=12x"}).get_int("n", 0),
               std::invalid_argument);
  EXPECT_THROW((void)parse({"--eps=zz"}).get_double("eps", 0.0),
               std::invalid_argument);
}

TEST(Flags, TracksUnusedKeys) {
  const auto f = parse({"--used=1", "--typo=2"});
  (void)f.get_int("used", 0);
  const auto unused = f.unused();
  ASSERT_EQ(unused.size(), 1U);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Flags, CountRejectsNegativeValuesNamingTheFlag) {
  try {
    (void)parse({"--n", "-5"}).get_count("n", 4096);
    FAIL() << "--n -5 must not parse as a count";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "flags: --n wants a non-negative integer, got '-5'");
  }
  EXPECT_THROW((void)parse({"--n=abc"}).get_count("n", 0),
               std::invalid_argument);
}

TEST(Flags, CountAcceptsZeroAndPositiveValues) {
  EXPECT_EQ(parse({"--words", "0"}).get_count("words", 7), 0U);
  EXPECT_EQ(parse({"--n=4096"}).get_count("n", 1), 4096U);
  EXPECT_EQ(parse({}).get_count("n", 17), 17U);
}

TEST(Flags, NegativeNumberAsValue) {
  // "-5" must not be mistaken for a flag.
  const auto f = parse({"--offset", "-5"});
  EXPECT_EQ(f.get_int("offset", 0), -5);
}

}  // namespace
}  // namespace mpcg
