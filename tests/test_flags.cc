#include "common/flags.h"

#include <gtest/gtest.h>

namespace tcrowd {
namespace {

FlagParser ParseOk(std::vector<const char*> argv) {
  FlagParser parser;
  Status st = parser.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(st.ok()) << st.ToString();
  return parser;
}

TEST(Flags, EqualsSyntax) {
  auto p = ParseOk({"--name=value", "--n=3"});
  EXPECT_EQ(p.GetString("name"), "value");
  EXPECT_EQ(p.GetInt("n"), 3);
}

TEST(Flags, SpaceSyntax) {
  auto p = ParseOk({"--out", "/tmp/x", "--count", "7"});
  EXPECT_EQ(p.GetString("out"), "/tmp/x");
  EXPECT_EQ(p.GetInt("count"), 7);
}

TEST(Flags, BareBoolean) {
  auto p = ParseOk({"--verbose", "--dry-run"});
  EXPECT_TRUE(p.GetBool("verbose"));
  EXPECT_TRUE(p.GetBool("dry-run"));
  EXPECT_FALSE(p.GetBool("absent"));
}

TEST(Flags, BooleanSpellings) {
  auto p = ParseOk({"--a=true", "--b=1", "--c=yes", "--d=false", "--e=0",
                    "--f=no"});
  EXPECT_TRUE(p.GetBool("a"));
  EXPECT_TRUE(p.GetBool("b"));
  EXPECT_TRUE(p.GetBool("c"));
  EXPECT_FALSE(p.GetBool("d"));
  EXPECT_FALSE(p.GetBool("e"));
  EXPECT_FALSE(p.GetBool("f"));
}

TEST(Flags, UnparseableBoolFallsBack) {
  auto p = ParseOk({"--x=banana"});
  EXPECT_TRUE(p.GetBool("x", true));
  EXPECT_FALSE(p.GetBool("x", false));
}

TEST(Flags, Positional) {
  auto p = ParseOk({"cmd", "--k=1", "path/to/file"});
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "cmd");
  EXPECT_EQ(p.positional()[1], "path/to/file");
}

TEST(Flags, DoubleDashEndsFlags) {
  auto p = ParseOk({"--a=1", "--", "--not-a-flag"});
  EXPECT_EQ(p.GetInt("a"), 1);
  ASSERT_EQ(p.positional().size(), 1u);
  EXPECT_EQ(p.positional()[0], "--not-a-flag");
}

TEST(Flags, DefaultsWhenAbsent) {
  auto p = ParseOk({});
  EXPECT_EQ(p.GetString("s", "dflt"), "dflt");
  EXPECT_EQ(p.GetInt("i", -5), -5);
  EXPECT_DOUBLE_EQ(p.GetDouble("d", 2.5), 2.5);
}

TEST(Flags, DoubleParsing) {
  auto p = ParseOk({"--ratio=0.35", "--neg=-1e-3"});
  EXPECT_DOUBLE_EQ(p.GetDouble("ratio"), 0.35);
  EXPECT_DOUBLE_EQ(p.GetDouble("neg"), -1e-3);
}

TEST(Flags, MalformedNumberFallsBack) {
  auto p = ParseOk({"--n=abc"});
  EXPECT_EQ(p.GetInt("n", 9), 9);
  EXPECT_DOUBLE_EQ(p.GetDouble("n", 1.5), 1.5);
}

TEST(Flags, NegativeNumberAsSeparateToken) {
  // "--n -3": -3 does not start with "--" so it is consumed as the value.
  auto p = ParseOk({"--n", "-3"});
  EXPECT_EQ(p.GetInt("n"), -3);
}

TEST(Flags, FlagFollowedByFlagIsBoolean) {
  auto p = ParseOk({"--a", "--b=2"});
  EXPECT_TRUE(p.GetBool("a"));
  EXPECT_EQ(p.GetInt("b"), 2);
}

TEST(Flags, LastValueWins) {
  auto p = ParseOk({"--x=1", "--x=2"});
  EXPECT_EQ(p.GetInt("x"), 2);
}

TEST(Flags, EmptyFlagNameRejected) {
  FlagParser parser;
  std::vector<const char*> argv = {"--=v"};
  // "--=v" has an empty name before '='; treated as name "" -> error? The
  // parser splits "=v" at eq=0, name empty: current behaviour stores "".
  // We only require it not to crash and Has("") be queryable.
  Status st = parser.Parse(1, argv.data());
  (void)st;
  SUCCEED();
}

TEST(Flags, HasTracksPresence) {
  auto p = ParseOk({"--present=1"});
  EXPECT_TRUE(p.Has("present"));
  EXPECT_FALSE(p.Has("missing"));
}

TEST(Flags, ValueWithEqualsSign) {
  auto p = ParseOk({"--expr=a=b"});
  EXPECT_EQ(p.GetString("expr"), "a=b");
}

TEST(Flags, EmptyValue) {
  auto p = ParseOk({"--empty="});
  EXPECT_TRUE(p.Has("empty"));
  EXPECT_EQ(p.GetString("empty", "x"), "");
}

TEST(Flags, ValidateAcceptsFlagsThatWereRead) {
  auto p = ParseOk({"--n=3", "--verbose", "--ratio=0.5", "--name=x", "pos"});
  EXPECT_EQ(p.GetInt("n"), 3);
  EXPECT_TRUE(p.Has("verbose"));
  EXPECT_DOUBLE_EQ(p.GetDouble("ratio"), 0.5);
  EXPECT_EQ(p.GetString("name"), "x");
  EXPECT_TRUE(p.Validate().ok()) << p.Validate().ToString();
}

TEST(Flags, ValidateRejectsFlagsNeverRead) {
  auto p = ParseOk({"--threads=2", "--drivers=2", "--racy"});
  EXPECT_EQ(p.GetInt("threads", 1), 2);
  Status st = p.Validate();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("--drivers"), std::string::npos);
  EXPECT_NE(st.message().find("--racy"), std::string::npos);
  EXPECT_EQ(st.message().find("--threads"), std::string::npos);
}

TEST(Flags, ValidateRejectsValuesThatDoNotParse) {
  auto p = ParseOk({"--threads=abc", "--ratio=x", "--on=maybe"});
  EXPECT_EQ(p.GetInt("threads", 2), 2);
  EXPECT_DOUBLE_EQ(p.GetDouble("ratio", 0.5), 0.5);
  EXPECT_TRUE(p.GetBool("on", true));
  Status st = p.Validate();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("--threads=abc"), std::string::npos);
  EXPECT_NE(st.message().find("--ratio=x"), std::string::npos);
  EXPECT_NE(st.message().find("--on=maybe"), std::string::npos);
}

TEST(Flags, ValidateIgnoresAbsentFlagsAndPositionals) {
  auto p = ParseOk({"cmd", "--", "--after-double-dash"});
  EXPECT_EQ(p.GetInt("absent", 4), 4);
  EXPECT_TRUE(p.Validate().ok());
}

}  // namespace
}  // namespace tcrowd
