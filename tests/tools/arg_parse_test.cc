// Strict CLI flag-parsing contract (tools/arg_parse.h): every malformed
// input yields a named error, never a silent default —
//   - a positional token where a --flag was expected,
//   - a trailing flag with no value,
//   - a flag outside the command's spec table (typos never pass),
//   - a non-numeric value handed to an integer or float flag,
//   - an empty or non-numeric element in an integer-list flag.

#include "arg_parse.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace gass::tools {
namespace {

/// argv builder: keeps the strings alive and hands out char* const*.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : args_(std::move(args)) {
    for (std::string& a : args_) ptrs_.push_back(a.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char* const* argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> args_;
  std::vector<char*> ptrs_;
};

const std::vector<ArgSpec> kSpecs = {
    {"n", ArgKind::kInt},
    {"rate", ArgKind::kFloat},
    {"method", ArgKind::kString},
    {"threads", ArgKind::kIntList},
};

TEST(ParseLongTest, AcceptsWholeDecimalsOnly) {
  long v = 0;
  EXPECT_TRUE(ParseLong("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseLong("-7", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(ParseLong("", &v));
  EXPECT_FALSE(ParseLong("12x", &v));      // Trailing garbage.
  EXPECT_FALSE(ParseLong("4.5", &v));      // Not an integer.
  EXPECT_FALSE(ParseLong("ten", &v));
  EXPECT_FALSE(ParseLong("999999999999999999999999", &v));  // ERANGE.
}

TEST(ParseDoubleTest, AcceptsWholeNumbersOnly) {
  double v = 0.0;
  EXPECT_TRUE(ParseDouble("0.25", &v));
  EXPECT_DOUBLE_EQ(v, 0.25);
  EXPECT_TRUE(ParseDouble("-3", &v));
  EXPECT_DOUBLE_EQ(v, -3.0);
  EXPECT_TRUE(ParseDouble("1e3", &v));
  EXPECT_DOUBLE_EQ(v, 1000.0);
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("0.5qps", &v));
  EXPECT_FALSE(ParseDouble("fast", &v));
}

TEST(ParseIntListTest, AcceptsCommaSeparatedWholeDecimalsOnly) {
  std::vector<long> v;
  EXPECT_TRUE(ParseIntList("1,2,4", &v));
  EXPECT_EQ(v, (std::vector<long>{1, 2, 4}));
  EXPECT_TRUE(ParseIntList("-3", &v));
  EXPECT_EQ(v, (std::vector<long>{-3}));
  EXPECT_FALSE(ParseIntList("", &v));
  EXPECT_FALSE(ParseIntList(",1", &v));     // Empty leading element.
  EXPECT_FALSE(ParseIntList("1,,2", &v));   // Empty middle element.
  EXPECT_FALSE(ParseIntList("1,2,", &v));   // Trailing comma.
  EXPECT_FALSE(ParseIntList("1,abc", &v));  // Non-numeric element.
  EXPECT_FALSE(ParseIntList("1,2.5", &v));  // Not an integer.
  EXPECT_EQ(v, (std::vector<long>{-3}));    // Failures leave *out alone.
}

TEST(ArgParserTest, ParsesFlagValuePairsInAnyOrder) {
  Argv args({"prog", "cmd", "--rate", "0.5", "--n", "10", "--method", "hnsw"});
  ArgParser flags(args.argc(), args.argv(), 2);
  ASSERT_TRUE(flags.ok()) << flags.error();
  ASSERT_TRUE(flags.Restrict(kSpecs)) << flags.error();
  EXPECT_EQ(flags.GetInt("n", 0), 10);
  EXPECT_DOUBLE_EQ(flags.GetFloat("rate", 0.0), 0.5);
  EXPECT_EQ(flags.Get("method", ""), "hnsw");
  EXPECT_TRUE(flags.Has("n"));
  EXPECT_FALSE(flags.Has("k"));
  EXPECT_EQ(flags.GetInt("k", 7), 7);  // Absent flag: fallback.
}

TEST(ArgParserTest, PositionalTokenIsAStructuralError) {
  Argv args({"prog", "cmd", "oops", "--n", "10"});
  ArgParser flags(args.argc(), args.argv(), 2);
  EXPECT_FALSE(flags.ok());
  EXPECT_NE(flags.error().find("expected --flag"), std::string::npos)
      << flags.error();
  EXPECT_NE(flags.error().find("oops"), std::string::npos);
  // Restrict on a structurally broken parse stays failed.
  EXPECT_FALSE(flags.Restrict(kSpecs));
}

TEST(ArgParserTest, DanglingFlagIsAStructuralError) {
  Argv args({"prog", "cmd", "--n", "10", "--rate"});
  ArgParser flags(args.argc(), args.argv(), 2);
  EXPECT_FALSE(flags.ok());
  EXPECT_NE(flags.error().find("missing a value"), std::string::npos)
      << flags.error();
  EXPECT_NE(flags.error().find("--rate"), std::string::npos);
}

TEST(ArgParserTest, UnknownFlagIsNamedByRestrict) {
  Argv args({"prog", "cmd", "--n", "10", "--shrads", "4"});
  ArgParser flags(args.argc(), args.argv(), 2);
  ASSERT_TRUE(flags.ok());
  EXPECT_FALSE(flags.Restrict(kSpecs));
  EXPECT_NE(flags.error().find("unknown flag --shrads"), std::string::npos)
      << flags.error();
}

TEST(ArgParserTest, NonNumericIntValueIsNamedByRestrict) {
  Argv args({"prog", "cmd", "--n", "ten"});
  ArgParser flags(args.argc(), args.argv(), 2);
  ASSERT_TRUE(flags.ok());
  EXPECT_FALSE(flags.Restrict(kSpecs));
  EXPECT_NE(flags.error().find("--n expects an integer, got 'ten'"),
            std::string::npos)
      << flags.error();
}

TEST(ArgParserTest, NonNumericFloatValueIsNamedByRestrict) {
  Argv args({"prog", "cmd", "--rate", "0.5qps"});
  ArgParser flags(args.argc(), args.argv(), 2);
  ASSERT_TRUE(flags.ok());
  EXPECT_FALSE(flags.Restrict(kSpecs));
  EXPECT_NE(flags.error().find("--rate expects a number, got '0.5qps'"),
            std::string::npos)
      << flags.error();
}

TEST(ArgParserTest, IntListFlagIsParsedWithFallback) {
  Argv args({"prog", "cmd", "--threads", "1,8"});
  ArgParser flags(args.argc(), args.argv(), 2);
  ASSERT_TRUE(flags.Restrict(kSpecs)) << flags.error();
  EXPECT_EQ(flags.GetIntList("threads", {4}), (std::vector<long>{1, 8}));
  EXPECT_EQ(flags.GetIntList("beams", {10, 40}), (std::vector<long>{10, 40}));
}

TEST(ArgParserTest, MalformedIntListIsNamedByRestrict) {
  for (const std::string bad : {"1,abc", "", "1,,2", "1,2,"}) {
    Argv args({"prog", "cmd", "--threads", bad});
    ArgParser flags(args.argc(), args.argv(), 2);
    ASSERT_TRUE(flags.ok());
    EXPECT_FALSE(flags.Restrict(kSpecs)) << bad;
    EXPECT_NE(flags.error().find("--threads expects comma-separated "
                                 "integers, got '" + bad + "'"),
              std::string::npos)
        << flags.error();
  }
}

TEST(ArgParserTest, StringFlagsAcceptAnything) {
  Argv args({"prog", "cmd", "--method", "1,2,3"});
  ArgParser flags(args.argc(), args.argv(), 2);
  ASSERT_TRUE(flags.ok());
  EXPECT_TRUE(flags.Restrict(kSpecs)) << flags.error();
  EXPECT_EQ(flags.Get("method", ""), "1,2,3");
}

TEST(ArgParserTest, EmptyArgListIsValid) {
  Argv args({"prog", "cmd"});
  ArgParser flags(args.argc(), args.argv(), 2);
  EXPECT_TRUE(flags.ok());
  EXPECT_TRUE(flags.Restrict(kSpecs));
  EXPECT_TRUE(flags.Restrict({}));  // No flags: any spec table passes.
}

}  // namespace
}  // namespace gass::tools
