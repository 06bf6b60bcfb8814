// Copyright 2026 MixQ-GNN Authors
#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

const std::vector<double> kTailPercentiles = {0.999, 0.99, 0.95, 0.9};

namespace {

// ceil(p * n) without the p * n rounding up past an exact integer
// (0.99 * 100 is 99.00000000000001 in binary floating point).
int64_t NearestRank(int64_t n, double p) {
  const double exact = p * static_cast<double>(n);
  const double rounded = std::round(exact);
  if (std::fabs(exact - rounded) < 1e-9) return static_cast<int64_t>(rounded);
  return static_cast<int64_t>(std::ceil(exact));
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const int64_t n = static_cast<int64_t>(values.size());
  const int64_t rank = std::clamp<int64_t>(NearestRank(n, p), 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[static_cast<size_t>(rank - 1)];
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

int64_t SamplesBeyond(int64_t n, double p) {
  if (n <= 0) return 0;
  return n - std::clamp<int64_t>(NearestRank(n, p), 1, n);
}

int64_t MinSamplesFor(double p) {
  int64_t n = 1;
  while (SamplesBeyond(n, p) < kMinSamplesBeyond) ++n;
  return n;
}

double HighestSupportedPercentile(int64_t n) {
  for (double p : kTailPercentiles) {
    if (SamplesBeyond(n, p) >= kMinSamplesBeyond) return p;
  }
  return 0.0;
}

std::string PercentileLabel(double p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%g", p * 100.0);
  return buf;
}

double Share::value() const {
  if (part > base || part < 0) return -1.0;
  if (base == 0) return 0.0;
  return static_cast<double>(part) / static_cast<double>(base);
}

OpenLoopSchedule::OpenLoopSchedule(Clock::time_point start, double rate_per_s,
                                   int lanes)
    : start_(start), period_ns_(1e9 / rate_per_s), lanes_(lanes) {}

Clock::time_point OpenLoopSchedule::Due(int lane, int64_t i) const {
  const double k = static_cast<double>(i * lanes_ + lane);
  return start_ + std::chrono::nanoseconds(static_cast<int64_t>(k * period_ns_));
}

double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double OpenLoopTiming::latency_ms() const { return MillisBetween(due, done); }
double OpenLoopTiming::late_ms() const { return MillisBetween(due, sent); }

}  // namespace perfbench
