//===- perfbench/selftest.cpp - Tests of the benchmark's own code ---------===//
//
// Part of the fft3d project.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"
#include "Workloads.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace perfbench;

TEST(PerfbenchStats, MedianOddEvenAndEmpty) {
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median({3.0}), 3.0);
  EXPECT_EQ(median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(PerfbenchStats, NearestRankPercentile) {
  const std::vector<double> S = {15, 20, 35, 40, 50};
  EXPECT_EQ(percentileNearestRank(S, 0.0), 15);
  EXPECT_EQ(percentileNearestRank(S, 0.05), 15);
  EXPECT_EQ(percentileNearestRank(S, 0.30), 20);
  EXPECT_EQ(percentileNearestRank(S, 0.40), 20);
  EXPECT_EQ(percentileNearestRank(S, 0.50), 35);
  EXPECT_EQ(percentileNearestRank(S, 1.00), 50);
  EXPECT_EQ(percentileNearestRank({}, 0.5), 0.0);
  std::vector<double> Hundred;
  for (int I = 100; I >= 1; --I)
    Hundred.push_back(I);
  EXPECT_EQ(percentileNearestRank(Hundred, 0.99), 99);
}

TEST(PerfbenchTally, FailedFracCountsFailuresRefusalsAndChecks) {
  Tally T;
  EXPECT_EQ(T.failedFrac(), 1.0); // nothing attempted is not success
  T.attempt(98);
  T.fail(1);
  T.drop(1);
  EXPECT_DOUBLE_EQ(T.failedFrac(), 2.0 / 98.0);
  EXPECT_TRUE(T.correct());
  T.check(true, "holds");
  EXPECT_EQ(T.attempted(), 98u);
  T.check(false, "broken");
  EXPECT_FALSE(T.correct());
  EXPECT_EQ(T.attempted(), 99u);
  EXPECT_EQ(T.failed(), 2u);
  EXPECT_EQ(T.dropped(), 1u);
  EXPECT_DOUBLE_EQ(T.failedFrac(), 3.0 / 99.0);
  ASSERT_EQ(T.failedChecks().size(), 1u);
  EXPECT_EQ(T.failedChecks()[0], "broken");

  Tally Sum;
  Sum.attempt(1);
  Sum.mergeFrom(T);
  EXPECT_EQ(Sum.attempted(), 100u);
  EXPECT_EQ(Sum.failed(), 2u);
  EXPECT_FALSE(Sum.correct());
}

TEST(PerfbenchMetrics, NamesMatchTheAllowedAlphabet) {
  for (const auto *Specs : {&endToEndSpecs(), &perLayerSpecs()})
    for (const MetricSpec &S : *Specs)
      EXPECT_TRUE(validMetricName(S.Name)) << S.Name;
  EXPECT_FALSE(validMetricName(""));
  EXPECT_FALSE(validMetricName(".leading_dot"));
  EXPECT_FALSE(validMetricName("has space"));
  EXPECT_FALSE(validMetricName("brace{x}"));
  EXPECT_FALSE(validMetricName(std::string(65, 'a')));
  EXPECT_TRUE(validMetricName("serve.fleet.least_loaded.p99_ms"));
}

TEST(PerfbenchMetrics, CoverageFindsMissingExtraAndWrongUnits) {
  const std::vector<MetricSpec> Want = {{"a", "s"}, {"b", "count"}};
  EXPECT_TRUE(coverageErrors({{"a", 1, "s"}, {"b", 2, "count"}}, Want).empty());
  EXPECT_EQ(coverageErrors({{"a", 1, "s"}}, Want).size(), 1u);
  EXPECT_EQ(coverageErrors({{"a", 1, "ms"}, {"b", 2, "count"}}, Want).size(),
            1u);
  EXPECT_EQ(coverageErrors(
                {{"a", 1, "s"}, {"b", 2, "count"}, {"c", 3, "s"}}, Want)
                .size(),
            1u);
  EXPECT_EQ(coverageErrors({{"a", 1, "s"}, {"a", 1, "s"}, {"b", 2, "count"}},
                           Want)
                .size(),
            1u);
}

TEST(PerfbenchMetrics, ResultLineCarriesFullPrecision) {
  std::ostringstream OS;
  // 17 significant digits round-trip any double.
  writeResultLine(OS, true, 7, 0, {{"wall_s", 0.1, "s"}});
  EXPECT_EQ(OS.str(), "{\"correct\": true, \"attempted\": 7, \"failed\": 0, "
                      "\"metrics\": {\"wall_s\": {\"value\": "
                      "0.10000000000000001, \"unit\": \"s\"}}}\n");
}

// Runs every workload once (one set-up, one iteration): its outputs pass
// their checks and it reports every end-to-end metric, none of them 0.
TEST(PerfbenchWorkloads, EveryWorkloadEmitsEveryEndToEndMetric) {
  ASSERT_EQ(workloads().size(), 5u);
  for (const WorkloadInfo &W : workloads()) {
    const WorkloadResult R = W.Run({/*Seed=*/3, /*Seconds=*/0.0, nullptr});
    EXPECT_TRUE(R.Ops.correct()) << W.Name;
    EXPECT_EQ(R.WallS.size(), 1u) << W.Name;
    const std::vector<Metric> M = endToEndMetrics(R, peakRssMiB());
    EXPECT_TRUE(coverageErrors(M, endToEndSpecs()).empty()) << W.Name;
    for (const Metric &X : M)
      EXPECT_GT(X.Value, 0.0) << W.Name << " " << X.Name;
  }
}
