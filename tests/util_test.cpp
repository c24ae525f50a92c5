// Tests for the utility layer: PRNG determinism, statistics, table printer,
// flag parser.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "../bench/stats.hpp"
#include "util/flags.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"

namespace busytime {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformIntInRangeAndCoversEndpoints) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto x = rng.uniform_int(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    saw_lo |= (x == -3);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ParetoIntWithinBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const auto x = rng.pareto_int(1, 100, 1.5);
    EXPECT_GE(x, 1);
    EXPECT_LE(x, 100);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  auto shuffled = v;
  rng.shuffle(shuffled.begin(), shuffled.end());
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(21);
  Rng child = a.split();
  // The child stream should not replay the parent's outputs.
  Rng b(21);
  (void)b();  // advance past the split draw
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (child() == b());
  EXPECT_LT(equal, 4);
}

TEST(Stats, MeanStdDevMinMax) {
  StatAccumulator acc;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.median(), 4.5);
  EXPECT_DOUBLE_EQ(acc.quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(acc.quantile(1.0), 9.0);
}

TEST(Table, AlignedAsciiOutput) {
  Table t({"g", "ratio"});
  t.add_row({"2", "1.5000"});
  t.add_row({"10", "1.9000"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_EQ(out.front(), '+');  // starts with a rule
  EXPECT_NE(out.find("ratio"), std::string::npos);
  EXPECT_NE(out.find("1.9000"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, Formatting) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fmt(static_cast<long long>(42)), "42");
}

TEST(Flags, ParsesAllForms) {
  // Note: "--name value" is greedy, so bare boolean flags must use
  // "--name=true" or come last / before another flag.
  const char* argv[] = {"prog", "--n=10", "--seed", "99",
                        "pos1", "--x=3.5", "--verbose"};
  Flags flags(7, const_cast<char**>(argv));
  EXPECT_EQ(flags.get_int("n", 0), 10);
  EXPECT_EQ(flags.get_int("seed", 0), 99);
  EXPECT_TRUE(flags.get_bool("verbose"));
  EXPECT_FALSE(flags.get_bool("quiet"));
  EXPECT_DOUBLE_EQ(flags.get_double("x", 0.0), 3.5);
  EXPECT_EQ(flags.get("missing", "dflt"), "dflt");
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "pos1");
  EXPECT_TRUE(flags.has("n"));
  EXPECT_FALSE(flags.has("m"));
}

TEST(Flags, RangeCheckedIntegersNameTheFlagAndTheRange) {
  const char* argv[] = {"prog",    "--n=-5", "--g=4294967297", "--k=12",
                        "--x=3.5", "--e=",   "--big=99999999999999999999"};
  Flags flags(7, const_cast<char**>(argv));
  EXPECT_EQ(flags.get_int_in("k", 0, 0, 100), 12);
  EXPECT_EQ(flags.get_int_in("k", 0, 12, 12), 12);  // both bounds are inclusive
  EXPECT_EQ(flags.get_int_in("missing", 7, 0, 5), 7);  // the fallback is not checked
  const auto error_of = [&](const std::string& name, std::int64_t lo, std::int64_t hi) {
    try {
      flags.get_int_in(name, 0, lo, hi);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  constexpr std::int64_t kIntMax = 2147483647;
  EXPECT_EQ(error_of("n", 0, kIntMax), "--n must be an integer in [0, 2147483647], got '-5'");
  EXPECT_EQ(error_of("g", 1, kIntMax),
            "--g must be an integer in [1, 2147483647], got '4294967297'");
  EXPECT_EQ(error_of("k", 13, 20), "--k must be an integer in [13, 20], got '12'");
  EXPECT_EQ(error_of("x", 0, 10), "--x must be an integer in [0, 10], got '3.5'");
  EXPECT_EQ(error_of("e", 0, 10), "--e must be an integer in [0, 10], got ''");
  EXPECT_EQ(error_of("big", 0, std::numeric_limits<std::int64_t>::max()),
            "--big must be an integer in [0, 9223372036854775807], got "
            "'99999999999999999999'");
}

}  // namespace
}  // namespace busytime
