#include <cstdlib>

#include <gtest/gtest.h>

#include "benchlib/sweep.h"
#include "benchlib/table_out.h"
#include "benchlib/timing.h"

namespace blitz {
namespace {

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch watch;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(watch.ElapsedSeconds(), 0.0);
  watch.Reset();
  EXPECT_LT(watch.ElapsedSeconds(), 1.0);
}

TEST(TimeItTest, HonorsMinimumRepetitions) {
  int calls = 0;
  const TimingResult result = TimeIt([&] { ++calls; }, 0.0, 5);
  EXPECT_GE(result.repetitions, 5);
  EXPECT_EQ(calls, result.repetitions);
  EXPECT_GE(result.seconds_per_run, 0.0);
}

TEST(TimeItTest, AccumulatesUntilFloor) {
  const TimingResult result = TimeIt(
      [] {
        volatile double sink = 0;
        for (int i = 0; i < 1000; ++i) sink = sink + i;
      },
      0.01);
  EXPECT_GE(result.total_seconds, 0.01);
  EXPECT_GE(result.repetitions, 1);
}

TEST(BenchEnvTest, MinSecondsFallbackAndOverride) {
  unsetenv("BLITZ_BENCH_MIN_SECONDS");
  EXPECT_DOUBLE_EQ(BenchMinSeconds(0.25), 0.25);
  setenv("BLITZ_BENCH_MIN_SECONDS", "1.5", 1);
  EXPECT_DOUBLE_EQ(BenchMinSeconds(0.25), 1.5);
  setenv("BLITZ_BENCH_MIN_SECONDS", "junk", 1);
  EXPECT_DOUBLE_EQ(BenchMinSeconds(0.25), 0.25);
  unsetenv("BLITZ_BENCH_MIN_SECONDS");
}

TEST(BenchEnvTest, EnvInt) {
  unsetenv("BLITZ_TEST_KNOB");
  EXPECT_EQ(BenchEnvInt("BLITZ_TEST_KNOB", 13), 13);
  setenv("BLITZ_TEST_KNOB", "21", 1);
  EXPECT_EQ(BenchEnvInt("BLITZ_TEST_KNOB", 13), 21);
  unsetenv("BLITZ_TEST_KNOB");
}

TEST(TextTableTest, AlignsColumns) {
  TextTable table;
  table.SetHeader({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "22.5"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  // Numeric column right-aligned: "22.5" should appear at line end.
  EXPECT_NE(out.find("22.5\n"), std::string::npos) << out;
}

TEST(TextTableTest, CsvOutput) {
  TextTable table;
  table.SetHeader({"a", "b"});
  table.AddRow({"1", "2"});
  EXPECT_EQ(table.ToCsv(), "a,b\n1,2\n");
}

TEST(TextTableTest, EmptyTableRendersEmpty) {
  TextTable table;
  EXPECT_EQ(table.ToString(), "");
  EXPECT_EQ(table.ToCsv(), "");
}

TEST(SweepTest, SmallSweepProducesAllGridPoints) {
  SweepConfig config;
  config.num_relations = 9;
  config.models = {CostModelKind::kNaive, CostModelKind::kSortMerge};
  config.topologies = {Topology::kChain, Topology::kStar};
  config.mean_cardinalities = {10, 1000};
  config.variabilities = {0, 1};
  config.min_seconds_per_point = 0.0;
  Result<std::vector<SweepPoint>> points = RunSweep(config);
  ASSERT_TRUE(points.ok()) << points.status().ToString();
  EXPECT_EQ(points->size(), 16u);
  for (const SweepPoint& point : *points) {
    EXPECT_GT(point.seconds, 0.0);
    EXPECT_GE(point.repetitions, 1);
    EXPECT_LT(point.plan_cost, kRejectedCost);
    EXPECT_EQ(point.passes, 1);
  }
  // Ordering: model axis outermost.
  EXPECT_EQ((*points)[0].model, CostModelKind::kNaive);
  EXPECT_EQ((*points)[8].model, CostModelKind::kSortMerge);
}

TEST(SweepTest, ThresholdSweepRecordsPasses) {
  SweepConfig config;
  config.num_relations = 9;
  config.models = {CostModelKind::kNaive};
  config.topologies = {Topology::kChain};
  config.mean_cardinalities = {100};
  config.variabilities = {0};
  config.min_seconds_per_point = 0.0;
  config.threshold = 1.0f;  // almost certainly requires re-passes
  config.threshold_growth = 100.0f;
  Result<std::vector<SweepPoint>> points = RunSweep(config);
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->size(), 1u);
  EXPECT_GE((*points)[0].passes, 1);
  EXPECT_LT((*points)[0].plan_cost, kRejectedCost);
}

TEST(SweepTest, InvalidSpecSurfacesError) {
  SweepConfig config;
  config.num_relations = 9;
  config.models = {CostModelKind::kNaive};
  config.topologies = {Topology::kChain};
  config.mean_cardinalities = {0.5};  // invalid: below 1
  config.variabilities = {0};
  EXPECT_FALSE(RunSweep(config).ok());
}

}  // namespace
}  // namespace blitz
