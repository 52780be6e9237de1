#include <algorithm>
#include <clocale>
#include <cmath>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/timer.h"

namespace tcm {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::InvalidSpec("x").code(), StatusCode::kInvalidSpec);
  EXPECT_EQ(Status::UnknownAlgorithm("x").code(),
            StatusCode::kUnknownAlgorithm);
  EXPECT_EQ(Status::PrivacyViolation("x").code(),
            StatusCode::kPrivacyViolation);
  EXPECT_EQ(Status::InvalidArgument("boom").message(), "boom");
}

TEST(StatusTest, ToStringIncludesCodeNameAndMessage) {
  Status status = Status::NotFound("missing thing");
  EXPECT_EQ(status.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return Status::Internal("inner"); };
  auto outer = [&]() -> Status {
    TCM_RETURN_IF_ERROR(fails());
    return Status::Ok();
  };
  EXPECT_EQ(outer().code(), StatusCode::kInternal);
}

TEST(StatusTest, ReturnIfErrorPassesThroughOk) {
  auto succeeds = []() -> Status { return Status::Ok(); };
  auto outer = [&]() -> Status {
    TCM_RETURN_IF_ERROR(succeeds());
    return Status::InvalidArgument("after");
  };
  EXPECT_EQ(outer().code(), StatusCode::kInvalidArgument);
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIoError), "IoError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidSpec), "InvalidSpec");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnknownAlgorithm),
               "UnknownAlgorithm");
  EXPECT_STREQ(StatusCodeName(StatusCode::kPrivacyViolation),
               "PrivacyViolation");
}

// ---------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result(Status::NotFound("gone"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, ValueOrReturnsFallbackOnError) {
  Result<int> error(Status::Internal("x"));
  EXPECT_EQ(error.value_or(-1), -1);
  Result<int> good(7);
  EXPECT_EQ(good.value_or(-1), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> result(std::string("hello"));
  std::string moved = std::move(result).value();
  EXPECT_EQ(moved, "hello");
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  auto inner = []() -> Result<int> { return Status::OutOfRange("bad"); };
  auto outer = [&]() -> Result<int> {
    TCM_ASSIGN_OR_RETURN(int v, inner());
    return v + 1;
  };
  EXPECT_EQ(outer().status().code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, AssignOrReturnAssignsValue) {
  auto inner = []() -> Result<int> { return 41; };
  auto outer = [&]() -> Result<int> {
    TCM_ASSIGN_OR_RETURN(int v, inner());
    return v + 1;
  };
  ASSERT_TRUE(outer().ok());
  EXPECT_EQ(outer().value(), 42);
}

TEST(ResultTest, ArrowOperatorReachesMembers) {
  Result<std::string> result(std::string("abc"));
  EXPECT_EQ(result->size(), 3u);
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differences = 0;
  for (int i = 0; i < 10; ++i) {
    if (a.Next() != b.Next()) ++differences;
  }
  EXPECT_GT(differences, 0);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double value = rng.NextDouble();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextBoundedCoversAllResidues) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, GaussianMomentsAreStandardNormal) {
  Rng rng(13);
  constexpr int kSamples = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  double mean = sum / kSamples;
  double var = sum_sq / kSamples - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> items(50);
  std::iota(items.begin(), items.end(), 0);
  std::vector<int> shuffled = items;
  rng.Shuffle(shuffled);
  EXPECT_NE(shuffled, items);  // astronomically unlikely to match
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(RngTest, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Rng>);
  SUCCEED();
}

// --------------------------------------------------------------- strings

TEST(StringsTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(SplitString("a,,b", ','),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(SplitString("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(SplitString("one", ','), (std::vector<std::string>{"one"}));
  EXPECT_EQ(SplitString(",x,", ','),
            (std::vector<std::string>{"", "x", ""}));
}

TEST(StringsTest, JoinRoundTripsSplit) {
  std::vector<std::string> parts = {"a", "bb", "", "c"};
  EXPECT_EQ(SplitString(JoinStrings(parts, "|"), '|'), parts);
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y  "), "x y");
  EXPECT_EQ(StripWhitespace("\t\n"), "");
  EXPECT_EQ(StripWhitespace("abc"), "abc");
  EXPECT_EQ(StripWhitespace(""), "");
  // Exactly the C locale's set: space and '\t' through '\r', never a
  // locale's extra bytes such as Latin-1 NBSP.
  EXPECT_EQ(StripWhitespace(" \t\n\v\f\rx\r\f\v\n\t "), "x");
  EXPECT_EQ(StripWhitespace("\xa0x\x1c"), "\xa0x\x1c");
}

TEST(StringsTest, ParseDoubleAcceptsValidNumbers) {
  double value = 0.0;
  EXPECT_TRUE(ParseDouble("3.5", &value));
  EXPECT_DOUBLE_EQ(value, 3.5);
  EXPECT_TRUE(ParseDouble(" -2e3 ", &value));
  EXPECT_DOUBLE_EQ(value, -2000.0);
  EXPECT_TRUE(ParseDouble("0", &value));
  EXPECT_DOUBLE_EQ(value, 0.0);
}

TEST(StringsTest, ParseDoubleRejectsGarbage) {
  double value = 0.0;
  EXPECT_FALSE(ParseDouble("", &value));
  EXPECT_FALSE(ParseDouble("abc", &value));
  EXPECT_FALSE(ParseDouble("1.5x", &value));
  EXPECT_FALSE(ParseDouble("  ", &value));
}

TEST(StringsTest, FormatDoubleTrimsZeros) {
  EXPECT_EQ(FormatDouble(3.0), "3");
  EXPECT_EQ(FormatDouble(0.25), "0.25");
  EXPECT_EQ(FormatDouble(12.5, 3), "12.5");
}

// Regression for the LC_NUMERIC bug: number parsing and formatting used
// to go through strtod/printf, which read the process locale — under a
// comma-decimal locale (de_DE, fr_FR, ...) "3.5" misparsed as 3 and
// 3.5 formatted as "3,5", corrupting CSV numerics, specs and JSON.
// Skipped (not failed) where no comma-decimal locale is installed; CI
// generates de_DE.UTF-8 so the regression stays live there.
TEST(StringsTest, NumbersAreLocaleIndependent) {
  const char* previous = std::setlocale(LC_ALL, nullptr);
  const std::string saved = previous != nullptr ? previous : "C";
  const char* comma_locale = nullptr;
  for (const char* name : {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8",
                           "fr_FR.utf8", "it_IT.UTF-8", "es_ES.UTF-8"}) {
    if (std::setlocale(LC_ALL, name) != nullptr &&
        std::localeconv()->decimal_point[0] == ',') {
      comma_locale = name;
      break;
    }
  }
  if (comma_locale == nullptr) {
    std::setlocale(LC_ALL, saved.c_str());
    GTEST_SKIP() << "no comma-decimal locale installed";
  }
  struct RestoreLocale {
    std::string saved;
    ~RestoreLocale() { std::setlocale(LC_ALL, saved.c_str()); }
  } restore{saved};

  double value = 0.0;
  EXPECT_TRUE(ParseDouble("3.5", &value)) << "under " << comma_locale;
  EXPECT_DOUBLE_EQ(value, 3.5);
  EXPECT_TRUE(ParseDouble("-2.25e-3", &value));
  EXPECT_DOUBLE_EQ(value, -0.00225);
  // A comma is never a decimal separator on the wire, whatever the host
  // locale says.
  EXPECT_FALSE(ParseDouble("3,5", &value));

  EXPECT_EQ(FormatDouble(3.5), "3.5");
  EXPECT_EQ(FormatDouble(0.125, 3), "0.125");
}

// ----------------------------------------------------------------- Timer

TEST(TimerTest, ElapsedIsNonNegativeAndMonotone) {
  WallTimer timer;
  double first = timer.ElapsedSeconds();
  double second = timer.ElapsedSeconds();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(second, first);
}

TEST(TimerTest, RestartResetsClock) {
  WallTimer timer;
  // Burn a little time.
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  double before = timer.ElapsedSeconds();
  timer.Restart();
  EXPECT_LE(timer.ElapsedSeconds(), before);
}

}  // namespace
}  // namespace tcm
