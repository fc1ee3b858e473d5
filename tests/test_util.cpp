/// Unit tests for timers, run statistics, tables, env knobs, CLI parsing,
/// and OpenMP thread controls.

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "util/cli.hpp"
#include "util/env.hpp"
#include "util/table.hpp"
#include "util/threading.hpp"
#include "util/timer.hpp"

namespace bmh {
namespace {

TEST(Timer, MeasuresNonNegativeTime) {
  Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 10000; ++i) sink = sink + static_cast<double>(i);
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_GE(t.milliseconds(), t.seconds());
}

TEST(RunStats, GeomeanOfConstantIsConstant) {
  RunStats s;
  for (int i = 0; i < 5; ++i) s.add(2.0);
  EXPECT_NEAR(s.geomean(), 2.0, 1e-9);
}

TEST(RunStats, WarmupSkipsLeadingSamples) {
  RunStats s;
  s.add(100.0);  // warm-up outlier
  s.add(1.0);
  s.add(1.0);
  EXPECT_NEAR(s.geomean(1), 1.0, 1e-9);
  EXPECT_NEAR(s.min(1), 1.0, 1e-9);
  EXPECT_NEAR(s.mean(1), 1.0, 1e-9);
}

TEST(RunStats, GeomeanMixesMultiplicatively) {
  RunStats s;
  s.add(1.0);
  s.add(4.0);
  EXPECT_NEAR(s.geomean(), 2.0, 1e-9);
}

TEST(RunStats, ThrowsWhenWarmupConsumesAll) {
  RunStats s;
  s.add(1.0);
  EXPECT_THROW((void)s.geomean(1), std::invalid_argument);
}

TEST(Table, RendersAlignedColumnsWithHeaderRule) {
  Table t({"name", "value"});
  t.row().add("alpha").add(3.14159, 2);
  t.row().add("b").add(std::int64_t{42});
  std::ostringstream os;
  t.print(os, "demo");
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, RejectsTooManyCells) {
  Table t({"only"});
  t.row().add("x");
  EXPECT_THROW(t.add("y"), std::logic_error);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(FormatCount, InsertsThousandsSeparators) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(12345678), "12,345,678");
  EXPECT_EQ(format_count(-1234), "-1,234");
}

TEST(FormatDouble, RespectsPrecision) {
  EXPECT_EQ(format_double(1.23456, 3), "1.235");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

TEST(Env, FallbacksWhenUnset) {
  ::unsetenv("BMH_TEST_UNSET_VAR");
  EXPECT_EQ(env_double("BMH_TEST_UNSET_VAR", 1.5), 1.5);
  EXPECT_EQ(env_int("BMH_TEST_UNSET_VAR", 7), 7);
  EXPECT_EQ(env_string("BMH_TEST_UNSET_VAR", "dflt"), "dflt");
}

TEST(Env, ParsesSetValues) {
  ::setenv("BMH_TEST_VAR", "2.5", 1);
  EXPECT_EQ(env_double("BMH_TEST_VAR", 0.0), 2.5);
  ::setenv("BMH_TEST_VAR", "11", 1);
  EXPECT_EQ(env_int("BMH_TEST_VAR", 0), 11);
  ::unsetenv("BMH_TEST_VAR");
}

TEST(Env, MalformedValuesFallBack) {
  ::setenv("BMH_TEST_VAR", "not-a-number", 1);
  EXPECT_EQ(env_double("BMH_TEST_VAR", 3.0), 3.0);
  EXPECT_EQ(env_int("BMH_TEST_VAR", 5), 5);
  ::unsetenv("BMH_TEST_VAR");
}

TEST(Env, ScaledAppliesFloor) {
  ::setenv("BMH_SCALE", "0.01", 1);
  EXPECT_EQ(scaled(1000, 64), 64);
  ::unsetenv("BMH_SCALE");
  EXPECT_EQ(scaled(1000, 64), 1000);
}

TEST(Env, ThreadSweepStopsAtTheCap) {
  ::setenv("BMH_MAX_THREADS", "3", 1);
  EXPECT_EQ(thread_sweep(), (std::vector<int>{1, 2, 3}));
  ::setenv("BMH_MAX_THREADS", "4", 1);
  EXPECT_EQ(thread_sweep(), (std::vector<int>{1, 2, 4}));
  ::unsetenv("BMH_MAX_THREADS");
  EXPECT_EQ(thread_sweep().back(), num_procs());
}

TEST(Cli, ParsesFlagsAndPositional) {
  // Note: a bare `--flag token` pair is read as key/value, so positional
  // arguments must precede flags or follow `--key=value` style flags.
  const char* argv[] = {"prog", "--n", "100", "input.mtx", "--x=3.5", "--verbose"};
  CliArgs args(6, argv);
  EXPECT_EQ(args.get_int("n", 0), 100);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_FALSE(args.has("quiet"));
  EXPECT_DOUBLE_EQ(args.get_double("x", 0.0), 3.5);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.mtx");
}

TEST(Cli, FallbacksForMissingKeys) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_EQ(args.get("mode", "auto"), "auto");
  EXPECT_EQ(args.get_int("n", -1), -1);
}

TEST(Threading, GuardRestoresThreadCount) {
  const int before = max_threads();
  {
    ThreadCountGuard guard(1);
    EXPECT_EQ(max_threads(), 1);
  }
  EXPECT_EQ(max_threads(), before);
}

TEST(Threading, SetNumThreadsRejectsNonPositive) {
  EXPECT_THROW(set_num_threads(0), std::invalid_argument);
  EXPECT_THROW(set_num_threads(-2), std::invalid_argument);
}

TEST(Threading, NumProcsPositive) { EXPECT_GE(num_procs(), 1); }

} // namespace
} // namespace bmh
