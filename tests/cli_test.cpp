#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>

#include "common/cli.hpp"
#include "common/units.hpp"

namespace fusecu {
namespace {

TEST(ArgParser, FlagsOptionsAndPositionals) {
  ArgParser p({"--validate"}, {"--op", "--buffer"});
  const char* argv[] = {"prog", "--op", "1024", "768", "768", "--buffer", "512KB", "--validate"};
  p.parse(8, argv);
  EXPECT_TRUE(p.has_flag("--validate"));
  EXPECT_EQ(p.option("--op").value(), "1024");
  EXPECT_EQ(p.option_bytes("--buffer", 0), 512 * kKiB);
  EXPECT_EQ(p.positional(), (std::vector<std::string>{"768", "768"}));
}

TEST(ArgParser, DefaultsWhenAbsent) {
  ArgParser p({}, {"--buffer", "--count"});
  const char* argv[] = {"prog"};
  p.parse(1, argv);
  EXPECT_FALSE(p.has_flag("--anything"));
  EXPECT_EQ(p.option_bytes("--buffer", 42), 42);
  EXPECT_EQ(p.option_int("--count", 7), 7);
}

TEST(ArgParser, RejectsUnknownAndMalformed) {
  ArgParser p({"--f"}, {"--o"});
  const char* unknown[] = {"prog", "--nope"};
  EXPECT_THROW(p.parse(2, unknown), std::invalid_argument);
  ArgParser q({}, {"--o"});
  const char* missing_value[] = {"prog", "--o"};
  EXPECT_THROW(q.parse(2, missing_value), std::invalid_argument);
  ArgParser r({}, {"--n"});
  const char* bad_int[] = {"prog", "--n", "12x"};
  r.parse(3, bad_int);
  EXPECT_THROW(r.option_int("--n", 0), std::invalid_argument);
}

TEST(ArgParser, HelpPrintsUsageAndExitsZero) {
  ArgParser p({"--f"}, {"--o"});
  const char* argv[] = {"prog", "--o", "1", "--help"};
  EXPECT_EXIT(p.parse_or_exit(4, argv, "usage: prog [--f] [--o V]\n"),
              ::testing::ExitedWithCode(0), "");
}

TEST(ArgParser, UnknownOrValuelessOptionPrintsUsageAndExitsTwo) {
  ArgParser p({"--f"}, {"--o"});
  const char* unknown[] = {"prog", "--bogus"};
  EXPECT_EXIT(p.parse_or_exit(2, unknown, "usage: prog [--f] [--o V]\n"),
              ::testing::ExitedWithCode(2), "unknown option: --bogus\nusage: prog");
  const char* missing_value[] = {"prog", "--o"};
  EXPECT_EXIT(p.parse_or_exit(2, missing_value, "usage: prog [--f] [--o V]\n"),
              ::testing::ExitedWithCode(2), "option --o expects a value\nusage: prog");
}

TEST(ArgParser, PositionalIntDefaultsAndParses) {
  ArgParser p({}, {});
  const char* argv[] = {"prog", "12"};
  p.parse_or_exit(2, argv, "usage: prog [seq [hidden]]\n");
  EXPECT_EQ(p.positional_int(0, "seq", 7, 1), 12);
  EXPECT_EQ(p.positional_int(1, "hidden", 7, 1), 7);
}

TEST(ArgParser, PositionalIntBelowMinimumOrMalformedPrintsUsageAndExitsTwo) {
  ArgParser p({}, {});
  const char* argv[] = {"prog", "0", "abc", "-3", "5x"};
  p.parse_or_exit(5, argv, "usage: prog [seq [hidden]]\n");
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EXIT(p.positional_int(i, "seq", 7, 1), ::testing::ExitedWithCode(2),
                "error: seq must be at least 1\nusage: prog");
  }
}

TEST(ArgParser, OptionUint64) {
  ArgParser p({}, {"--seed"});
  const char* decimal[] = {"prog", "--seed", "12345"};
  p.parse(3, decimal);
  EXPECT_EQ(p.option_uint64("--seed", 0), 12345u);

  ArgParser q({}, {"--seed"});
  const char* hex[] = {"prog", "--seed", "0x5eed"};
  q.parse(3, hex);
  EXPECT_EQ(q.option_uint64("--seed", 0), 0x5eedu);

  ArgParser absent({}, {"--seed"});
  const char* none[] = {"prog"};
  absent.parse(1, none);
  EXPECT_EQ(absent.option_uint64("--seed", 42), 42u);

  for (const char* bad : {"-1", "12x", "", "seed"}) {
    ArgParser r({}, {"--seed"});
    const char* argv[] = {"prog", "--seed", bad};
    r.parse(3, argv);
    EXPECT_THROW(r.option_uint64("--seed", 0), std::invalid_argument) << bad;
  }
}

TEST(ArgParser, MalformedOptionValuePrintsUsageAndExitsTwo) {
  ArgParser p({}, {"--n", "--seed", "--buffer"});
  const char* argv[] = {"prog", "--n", "abc", "--seed", "x", "--buffer", "12XB"};
  p.parse_or_exit(7, argv, "usage: prog [--n N] [--seed S] [--buffer SIZE]\n");
  EXPECT_EXIT(p.option_int("--n", 0), ::testing::ExitedWithCode(2),
              "^error: option --n expects an integer, got \"abc\"\nusage: prog");
  EXPECT_EXIT(p.option_uint64("--seed", 0), ::testing::ExitedWithCode(2),
              "^error: option --seed expects a non-negative integer \\(decimal or 0x hex\\), "
              "got \"x\"\nusage: prog");
  EXPECT_EXIT(p.option_bytes("--buffer", 0), ::testing::ExitedWithCode(2),
              "^error: option --buffer expects a byte size such as 4096, 512KB or 8MB, got "
              "\"12XB\"\nusage: prog");
}

TEST(ArgParser, MalformedOptionValueAfterPlainParseThrowsWithoutCheckText) {
  ArgParser p({}, {"--n", "--buffer"});
  const char* argv[] = {"prog", "--n", "99999999999999999999", "--buffer", "abc"};
  p.parse(5, argv);
  for (const auto& read : {std::function<void()>([&] { p.option_int("--n", 0); }),
                           std::function<void()>([&] { p.option_bytes("--buffer", 0); })}) {
    try {
      read();
      ADD_FAILURE() << "a malformed value was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("option --", 0), 0u) << what;
      EXPECT_EQ(what.find("FCU_CHECK"), std::string::npos) << what;
      EXPECT_EQ(what.find(".cpp"), std::string::npos) << what;
    }
  }
}

TEST(ParseBytes, SuffixesAndErrors) {
  EXPECT_EQ(parse_bytes("1024"), 1024);
  EXPECT_EQ(parse_bytes("512KB"), 512 * kKiB);
  EXPECT_EQ(parse_bytes("512kb"), 512 * kKiB);
  EXPECT_EQ(parse_bytes("8MB"), 8 * kMiB);
  EXPECT_EQ(parse_bytes("2GiB"), 2 * kGiB);
  EXPECT_EQ(parse_bytes("1.5K"), 1536);
  EXPECT_THROW(parse_bytes(""), std::invalid_argument);
  EXPECT_THROW(parse_bytes("12XB"), std::invalid_argument);
  EXPECT_THROW(parse_bytes("abc"), std::invalid_argument);
}

}  // namespace
}  // namespace fusecu
