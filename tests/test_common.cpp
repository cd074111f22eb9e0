#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/bytes.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"

namespace bepi {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NextBoundedUniformish) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) counts[rng.NextBounded(10)]++;
  for (int c : counts) {
    EXPECT_NEAR(c, draws / 10, draws / 100);  // within 10% of expectation
  }
}

TEST(Rng, UniformIndexCoversRangeInclusive) {
  Rng rng(5);
  std::set<index_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformIndex(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(Rng, GaussianMoments) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.Shuffle(&v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 10u);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(19);
  auto sample = rng.SampleWithoutReplacement(100, 30);
  std::set<index_t> s(sample.begin(), sample.end());
  EXPECT_EQ(s.size(), 30u);
  for (index_t v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 100);
  }
}

TEST(Rng, SampleAllElements) {
  Rng rng(23);
  auto sample = rng.SampleWithoutReplacement(10, 10);
  std::set<index_t> s(sample.begin(), sample.end());
  EXPECT_EQ(s.size(), 10u);
}

TEST(Rng, SampleZero) {
  Rng rng(23);
  EXPECT_TRUE(rng.SampleWithoutReplacement(10, 0).empty());
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 1000000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GT(t.Seconds(), 0.0);
  const double first = t.Millis();
  EXPECT_LE(first, t.Millis());  // monotone
  const double before = t.Seconds();
  t.Restart();
  EXPECT_LE(t.Seconds(), before + 1.0);
}

TEST(Bytes, HumanReadable) {
  EXPECT_EQ(HumanBytes(0), "0 B");
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KB");
  EXPECT_EQ(HumanBytes(3 * 1024 * 1024ull), "3.00 MB");
  EXPECT_EQ(HumanBytes(5ull * 1024 * 1024 * 1024), "5.00 GB");
}

TEST(Bytes, BytesToMb) {
  EXPECT_DOUBLE_EQ(BytesToMb(1024 * 1024), 1.0);
  EXPECT_DOUBLE_EQ(BytesToMb(0), 0.0);
}

TEST(Flags, ParseEqualsForm) {
  const char* argv[] = {"prog", "--alpha=1.5", "--name=bepi", "--big=42"};
  Flags f = Flags::Parse(4, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(f.GetDouble("alpha", 0.0), 1.5);
  EXPECT_EQ(f.GetString("name", ""), "bepi");
  EXPECT_EQ(f.GetInt("big", 0), 42);
}

TEST(Flags, ParseSpaceForm) {
  const char* argv[] = {"prog", "--count", "7", "--mode", "fast"};
  Flags f = Flags::Parse(5, const_cast<char**>(argv));
  EXPECT_EQ(f.GetInt("count", 0), 7);
  EXPECT_EQ(f.GetString("mode", ""), "fast");
}

TEST(Flags, BareBooleanAndDefaults) {
  const char* argv[] = {"prog", "--verbose"};
  Flags f = Flags::Parse(2, const_cast<char**>(argv));
  EXPECT_TRUE(f.GetBool("verbose", false));
  EXPECT_TRUE(f.Has("verbose"));
  EXPECT_FALSE(f.Has("quiet"));
  EXPECT_EQ(f.GetInt("missing", 99), 99);
  EXPECT_DOUBLE_EQ(f.GetDouble("missing", 0.5), 0.5);
  EXPECT_FALSE(f.GetBool("missing", false));
}

TEST(Flags, PositionalArguments) {
  const char* argv[] = {"prog", "file1", "--k=2", "file2"};
  Flags f = Flags::Parse(4, const_cast<char**>(argv));
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "file1");
  EXPECT_EQ(f.positional()[1], "file2");
}

TEST(Flags, BoolSpellings) {
  const char* argv[] = {"prog", "--a=true", "--b=1", "--c=yes", "--d=off"};
  Flags f = Flags::Parse(5, const_cast<char**>(argv));
  EXPECT_TRUE(f.GetBool("a", false));
  EXPECT_TRUE(f.GetBool("b", false));
  EXPECT_TRUE(f.GetBool("c", false));
  EXPECT_FALSE(f.GetBool("d", true));
}

TEST(Flags, ValidateAcceptsKnownWellTypedFlags) {
  const char* argv[] = {"prog", "--topk=5", "--tol=1e-9", "--mode=bepi",
                        "--stats"};
  Flags f = Flags::Parse(5, const_cast<char**>(argv));
  EXPECT_TRUE(f.Validate({{"topk", FlagType::kInt},
                          {"tol", FlagType::kDouble},
                          {"mode", FlagType::kString},
                          {"stats", FlagType::kBool},
                          {"unused", FlagType::kInt}})
                  .ok());
}

TEST(Flags, ValidateRejectsUnknownFlagNamingIt) {
  const char* argv[] = {"prog", "--topk=5", "--seednode=3"};
  Flags f = Flags::Parse(3, const_cast<char**>(argv));
  const Status status = f.Validate({{"topk", FlagType::kInt}});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--seednode"), std::string::npos);
}

TEST(Flags, ValidateRejectsMalformedValueNamingFlagAndType) {
  const char* argv[] = {"prog", "--topk=5x"};
  Flags f = Flags::Parse(2, const_cast<char**>(argv));
  const Status status = f.Validate({{"topk", FlagType::kInt}});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--topk"), std::string::npos);
  EXPECT_NE(status.message().find("integer"), std::string::npos);
  EXPECT_NE(status.message().find("5x"), std::string::npos);
}

TEST(Flags, ValidateRejectsIntegersThatDoNotFit) {
  // 2^32 + 2 would narrow to 2 in an int; 2^64 overflows strtoll.
  const char* argv[] = {"prog", "--threads=4294967298",
                        "--seed=99999999999999999999"};
  Flags f = Flags::Parse(3, const_cast<char**>(argv));
  const Status threads = f.Validate({{"threads", FlagType::kInt32},
                                     {"seed", FlagType::kString}});
  EXPECT_EQ(threads.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(threads.message().find("--threads"), std::string::npos);
  EXPECT_NE(threads.message().find("32-bit integer"), std::string::npos);
  const Status seed = f.Validate({{"threads", FlagType::kInt},
                                  {"seed", FlagType::kInt}});
  EXPECT_EQ(seed.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(seed.message().find("--seed"), std::string::npos);

  // The range ends themselves fit.
  const char* edges[] = {"prog", "--a=2147483647", "--b=-2147483648",
                         "--c=9223372036854775807"};
  Flags e = Flags::Parse(4, const_cast<char**>(edges));
  EXPECT_TRUE(e.Validate({{"a", FlagType::kInt32},
                          {"b", FlagType::kInt32},
                          {"c", FlagType::kInt}})
                  .ok());
  EXPECT_FALSE(e.Validate({{"a", FlagType::kInt32},
                           {"b", FlagType::kInt32},
                           {"c", FlagType::kInt32}})
                   .ok());
}

TEST(Flags, ValidateRejectsNonNumericDoubleAndBadBool) {
  const char* argv[] = {"prog", "--tol=fast", "--stats=maybe"};
  Flags f = Flags::Parse(3, const_cast<char**>(argv));
  EXPECT_FALSE(f.Validate({{"tol", FlagType::kDouble},
                           {"stats", FlagType::kBool}})
                   .ok());
  EXPECT_FALSE(f.Validate({{"tol", FlagType::kString},
                           {"stats", FlagType::kBool}})
                   .ok());
  EXPECT_TRUE(f.Validate({{"tol", FlagType::kString},
                          {"stats", FlagType::kString}})
                  .ok());
}

TEST(Flags, ValidateEmptySchemaRejectsEverything) {
  const char* argv[] = {"prog", "--anything"};
  Flags f = Flags::Parse(2, const_cast<char**>(argv));
  EXPECT_FALSE(f.Validate({}).ok());
  const char* argv2[] = {"prog", "positional-only"};
  Flags f2 = Flags::Parse(2, const_cast<char**>(argv2));
  EXPECT_TRUE(f2.Validate({}).ok());  // positionals are not schema-checked
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"beta-longer", "22"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("beta-longer"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
  // Column alignment: "value" header aligns above the values.
  const auto header_pos = s.find("value");
  const auto row_pos = s.find("22");
  const auto header_col = header_pos - 0;
  const auto line_start = s.rfind('\n', row_pos);
  EXPECT_EQ((row_pos - line_start - 1), header_col);
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::Int(1234), "1234");
  EXPECT_EQ(Table::IntGrouped(1234567), "1,234,567");
  EXPECT_EQ(Table::IntGrouped(12), "12");
  EXPECT_EQ(Table::IntGrouped(-1234), "-1,234");
  EXPECT_EQ(Table::Num(1.5, 2), "1.50");
  EXPECT_EQ(Table::Num(0.0), "0.000");
  EXPECT_NE(Table::Num(1.23e-8).find("e"), std::string::npos);
}

}  // namespace
}  // namespace bepi
