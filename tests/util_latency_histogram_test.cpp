#include "util/latency_histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace tc::util {
namespace {

constexpr double kPercentiles[] = {0.0, 50.0, 90.0, 99.0, 99.9, 100.0};

/// The exact order statistic a nearest-rank percentile names, read from
/// sorted samples.
double exact_percentile(const std::vector<double>& sorted, double p) {
  const double want = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(want), 1, sorted.size());
  return sorted[rank - 1];
}

void expect_within_one_percent(std::vector<double> samples_ns) {
  LatencyHistogram h;
  for (double x : samples_ns) h.record(x);
  ASSERT_EQ(h.count(), samples_ns.size());
  std::sort(samples_ns.begin(), samples_ns.end());
  for (double p : kPercentiles) {
    const double exact = exact_percentile(samples_ns, p);
    EXPECT_NEAR(h.percentile(p), exact, 0.01 * exact) << "p" << p;
  }
}

TEST(LatencyHistogram, EmptyBookReportsZero) {
  const LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.percentile(50.0), 0.0);
}

TEST(LatencyHistogram, LognormalWithinOnePercentOfSorted) {
  Rng rng(0x1a7e0c1ULL);
  std::vector<double> xs;
  for (int i = 0; i < 100000; ++i) {
    xs.push_back(std::exp(rng.normal(std::log(50e3), 1.0)));  // ~50 us
  }
  expect_within_one_percent(xs);
}

TEST(LatencyHistogram, BimodalWithinOnePercentOfSorted) {
  Rng rng(0xb1d0da1ULL);
  std::vector<double> xs;
  for (int i = 0; i < 100000; ++i) {
    const double mode = rng.bernoulli(0.5) ? 1e3 : 5e6;  // 1 us | 5 ms
    xs.push_back(mode * rng.uniform(0.9, 1.1));
  }
  expect_within_one_percent(xs);
}

// The documented bound, at every rank: a bucket's midpoint is within
// half its width, at most 1/128 (0.79%) of any integer sample in it.
// Whole-nanosecond inputs keep the recorder's rounding out of the error.
TEST(LatencyHistogram, EveryPercentileWithinHalfABucket) {
  Rng rng(0xa11a7e5ULL);
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) {
    // Median 200 us, spanning tens of ns to hundreds of ms.
    xs.push_back(std::round(std::exp(rng.normal(std::log(200e3), 2.0))));
  }
  LatencyHistogram h;
  for (double x : xs) h.record(x);
  std::sort(xs.begin(), xs.end());
  for (int tenth = 0; tenth <= 1000; ++tenth) {
    const double p = tenth / 10.0;
    const double exact = exact_percentile(xs, p);
    EXPECT_NEAR(h.percentile(p), exact, 0.008 * exact) << "p" << p;
  }
}

TEST(LatencyHistogram, ConstantIsExact) {
  const std::vector<double> xs(1000, 250e3);
  expect_within_one_percent(xs);
  LatencyHistogram h;
  for (double x : xs) h.record(x);
  for (double p : kPercentiles) EXPECT_EQ(h.percentile(p), 250e3);
}

TEST(LatencyHistogram, SingleSampleIsExact) {
  LatencyHistogram h;
  h.record(42e3);
  for (double p : kPercentiles) EXPECT_EQ(h.percentile(p), 42e3);
  EXPECT_EQ(h.min(), 42e3);
  EXPECT_EQ(h.max(), 42e3);
}

TEST(LatencyHistogram, ValuesBelow128nsAreExact) {
  LatencyHistogram h;
  for (int v = 0; v < 128; ++v) h.record(v);
  for (int rank = 1; rank <= 128; ++rank) {
    // p chosen mid-rank so ceil(p / 100 * 128) == rank exactly.
    const double p = (rank - 0.5) * 100.0 / 128.0;
    EXPECT_EQ(h.percentile(p), rank - 1) << "rank " << rank;
  }
}

TEST(LatencyHistogram, MergeEqualsRecordingIntoOne) {
  Rng rng(0x3e7e6eULL);
  LatencyHistogram a, b, all;
  for (int i = 0; i < 20000; ++i) {
    const double x = std::exp(rng.normal(std::log(20e3), 1.5));
    a.record(x);
    all.record(x);
  }
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.uniform(1e6, 9e6);
    b.record(x);
    all.record(x);
  }
  a.merge(b);
  a.merge(LatencyHistogram{});  // an empty book adds nothing
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
  for (double p = 0.0; p <= 100.0; p += 0.5) {
    EXPECT_EQ(a.percentile(p), all.percentile(p)) << "p" << p;
  }
  EXPECT_EQ(a.percentile(99.9), all.percentile(99.9));

  LatencyHistogram empty;
  empty.merge(all);
  EXPECT_EQ(empty.count(), all.count());
  EXPECT_EQ(empty.min(), all.min());
  EXPECT_EQ(empty.percentile(50.0), all.percentile(50.0));
}

TEST(LatencyHistogram, HostileInputsClampWithoutUB) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double top = static_cast<double>(LatencyHistogram::kMaxNs);
  LatencyHistogram h;
  // Zero, negatives and NaN count as 0 ns.
  for (double x : {0.0, -5.0, -kInf, std::nan("")}) h.record(x);
  // +inf and above-range values count in the top bucket.
  for (double x : {kInf, 1e30, top + 1.0, top}) h.record(x);
  EXPECT_EQ(h.count(), 8u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), top);
  EXPECT_EQ(h.percentile(0.0), 0.0);
  EXPECT_EQ(h.percentile(50.0), 0.0);
  EXPECT_EQ(h.percentile(100.0), top);
  // A rank inside the top bucket reads its midpoint, within 1% of it.
  EXPECT_NEAR(h.percentile(75.0), top, 0.01 * top);
  // Just below the range edge still lands in range, near its value.
  h.record(top - 1e6);
  EXPECT_NEAR(h.percentile(50.0), top - 1e6, 0.01 * top);
}

}  // namespace
}  // namespace tc::util
