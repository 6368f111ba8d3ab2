#include "sim/aggregate.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace airindex::sim {
namespace {

device::EnergyModel TestEnergy() {
  return device::EnergyModel(device::DeviceProfile::J2mePhone(),
                             device::kBitrateStatic3G);
}

TEST(StatOfTest, EmptyInputYieldsZeros) {
  Stat s = StatOf({});
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.p95, 0.0);
  EXPECT_EQ(s.p99, 0.0);
  EXPECT_EQ(s.max, 0.0);
}

TEST(StatOfTest, SingleValueIsEveryStatistic) {
  std::vector<double> v = {42.0};
  Stat s = StatOf(v);
  EXPECT_EQ(s.mean, 42.0);
  EXPECT_EQ(s.p50, 42.0);
  EXPECT_EQ(s.p95, 42.0);
  EXPECT_EQ(s.p99, 42.0);
  EXPECT_EQ(s.max, 42.0);
}

TEST(StatOfTest, NearestRankPercentilesOnOneToHundred) {
  // 1..100: nearest-rank p(q) = sorted[ceil(q*100)-1].
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  Stat s = StatOf(v);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_EQ(s.p50, 50.0);
  EXPECT_EQ(s.p95, 95.0);
  EXPECT_EQ(s.p99, 99.0);
  EXPECT_EQ(s.max, 100.0);
}

TEST(StatOfTest, NearestRankRoundsUpOnSmallInputs) {
  // n=3: p50 -> ceil(1.5)=2nd value, p95 -> ceil(2.85)=3rd value.
  std::vector<double> v = {10.0, 20.0, 30.0};
  Stat s = StatOf(v);
  EXPECT_EQ(s.p50, 20.0);
  EXPECT_EQ(s.p95, 30.0);
  EXPECT_EQ(s.p99, 30.0);
  EXPECT_DOUBLE_EQ(s.mean, 20.0);
}

TEST(PercentileTest, EdgeQuantilesAreClampedNotUndefined) {
  // Regression: q <= 0 used to compute ceil(q*n)-1 = -1 and index the
  // sorted array out of bounds (UB that happened to read the element
  // before the buffer). The contract is now pinned: q <= 0 and NaN clamp
  // to the minimum, q >= 1 to the maximum.
  std::vector<double> v = {30.0, 10.0, 20.0, 40.0};
  EXPECT_EQ(Percentile(v, 0.0), 10.0);
  EXPECT_EQ(Percentile(v, -0.5), 10.0);
  EXPECT_EQ(Percentile(v, std::nan("")), 10.0);
  EXPECT_EQ(Percentile(v, 1.0), 40.0);
  EXPECT_EQ(Percentile(v, 1.5), 40.0);
  // Interior values stay nearest-rank.
  EXPECT_EQ(Percentile(v, 0.25), 10.0);
  EXPECT_EQ(Percentile(v, 0.26), 20.0);
}

TEST(PercentileTest, DegenerateInputs) {
  std::vector<double> one = {7.0};
  for (double q : {-1.0, 0.0, 0.5, 1.0, 2.0}) {
    EXPECT_EQ(Percentile(one, q), 7.0) << "q=" << q;
  }
  EXPECT_EQ(Percentile({}, 0.0), 0.0);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
}

TEST(AggregateTest, CountsFailuresAndMemoryExceeded) {
  std::vector<device::QueryMetrics> metrics(4);
  for (auto& m : metrics) m.ok = true;
  metrics[1].ok = false;
  metrics[2].ok = false;
  metrics[3].memory_exceeded = true;
  Aggregate a = Aggregate::Of("NR", metrics, TestEnergy());
  EXPECT_EQ(a.system, "NR");
  EXPECT_EQ(a.queries, 4u);
  EXPECT_EQ(a.failures, 2u);
  EXPECT_EQ(a.memory_exceeded, 1u);

  Aggregate empty = Aggregate::Of("NR", {}, TestEnergy());
  EXPECT_EQ(empty.queries, 0u);
  EXPECT_EQ(empty.failures, 0u);
  EXPECT_EQ(empty.tuning_packets.mean, 0.0);
}

TEST(AggregateTest, AggregatesEveryCostFactor) {
  std::vector<device::QueryMetrics> metrics(2);
  metrics[0].tuning_packets = 100;
  metrics[0].latency_packets = 200;
  metrics[0].peak_memory_bytes = 1000;
  metrics[0].cpu_ms = 2.0;
  metrics[0].ok = true;
  metrics[1].tuning_packets = 300;
  metrics[1].latency_packets = 400;
  metrics[1].peak_memory_bytes = 3000;
  metrics[1].cpu_ms = 4.0;
  metrics[1].ok = true;

  Aggregate a = Aggregate::Of("EB", metrics, TestEnergy());
  EXPECT_EQ(a.queries, 2u);
  EXPECT_EQ(a.failures, 0u);
  EXPECT_DOUBLE_EQ(a.tuning_packets.mean, 200.0);
  EXPECT_EQ(a.tuning_packets.max, 300.0);
  EXPECT_DOUBLE_EQ(a.latency_packets.mean, 300.0);
  EXPECT_DOUBLE_EQ(a.peak_memory_bytes.mean, 2000.0);
  EXPECT_EQ(a.peak_memory_bytes.max, 3000.0);
  EXPECT_DOUBLE_EQ(a.cpu_ms.mean, 3.0);
  // Energy is monotone in tuning time: the heavier query costs more.
  const auto energy = TestEnergy();
  EXPECT_DOUBLE_EQ(a.energy_joules.max, energy.QueryJoules(metrics[1]));
  EXPECT_GT(a.energy_joules.max, 0.0);
}

}  // namespace
}  // namespace airindex::sim
